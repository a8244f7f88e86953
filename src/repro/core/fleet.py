"""Fault-tolerant fleet management for the filtering enclaves.

The paper's scale-out design (VI-B, Appendix C) distributes rules over ~50
enclaves but assumes the fleet stays healthy; its own threat model admits the
untrusted IXP can kill an enclave at any time.  A dead enclave fails closed
(every ECall raises), which is safe but not *available*: rules assigned to it
blackhole their traffic until somebody notices.  :class:`FleetManager` is
that somebody.  It keeps the deployment serving through crashes, platform
loss, EPC exhaustion and IAS outages:

* **health monitoring** — cheap ``ping`` ECall probes per round; an enclave
  is SUSPECT after one missed probe and DEAD after a configurable streak
  (the data path also marks an enclave dead the moment a burst ECall raises
  :class:`~repro.errors.EnclaveSealedError`, so detection never waits for
  the prober);
* **failover** — a dead enclave is relaunched on its platform when the
  platform survives, else on a spare platform from a bounded budget; the
  replacement is re-attested through the victim's
  :class:`~repro.core.session.VIFSession` with bounded retry + exponential
  backoff (deterministic jitter from :mod:`repro.util.rng`), so a transient
  IAS outage delays recovery instead of aborting it;
* **incremental re-distribution** — when no relaunch is possible, the
  orphaned rules are greedily re-packed onto survivors
  (:func:`~repro.optim.repair.repair_allocation`), preserving every
  survivor's rule set; only if repair is infeasible does the manager fall
  back to a full :func:`~repro.optim.greedy.greedy_solve` over the
  surviving fleet;
* **hot rule updates** — :meth:`FleetManager.install_rules` packs new
  rules into the existing allocation with the repair loop
  (:func:`~repro.optim.repair.pack_shares`) and
  :meth:`FleetManager.remove_rules` drops them in place, so only the
  enclaves a delta touched are diff-installed and re-attested;
* **graceful degradation** — when surviving capacity is below demand, rules
  are shed in priority/bandwidth order (:func:`~repro.optim.repair.shed_order`)
  and their traffic is *blackholed at the load balancer* — never passed
  unfiltered (fail-closed, the AITF partial-filtering stance) — with the
  shed set reported exactly.

Every decision is deterministic given the seed, so the fault-injection
harness (:mod:`repro.faults`) replays recovery paths bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.controller import BLACKHOLE, IXPController, record_flight
from repro.core.rules import FilterRule, RuleSet
from repro.core.session import VIFSession
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import UNROUTED
from repro.errors import (
    AttestationError,
    ConfigurationError,
    EnclaveError,
    EnclaveMemoryError,
    EnclaveSealedError,
    FleetError,
    InfeasibleError,
    RecoveryFailed,
    RuleError,
)
from repro.optim.greedy import greedy_solve
from repro.optim.problem import Allocation, RuleDistributionProblem
from repro.optim.repair import pack_shares, repair_allocation, shed_order
from repro.tee.attestation import PAPER_ATTESTATION_TIMING
from repro.tee.enclave import Platform
from repro.tee.epc import EPCAccounting
from repro.util.rng import deterministic_rng


class EnclaveHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class FleetConfig:
    """Knobs for health monitoring and recovery."""

    #: Consecutive missed probes before an enclave is declared DEAD.
    miss_threshold: int = 2
    #: Attestation attempts per recovery before :class:`RecoveryFailed`.
    max_attestation_attempts: int = 6
    #: First retry backoff (simulated seconds); doubles per attempt.
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    #: Jitter as a fraction of the current delay (deterministic, seeded).
    backoff_jitter: float = 0.25
    #: Replacement platforms available when a platform is lost outright.
    spare_platforms: int = 4
    #: Simulated cost of launching a replacement enclave.
    relaunch_time_s: float = 0.5
    #: Simulated cost of a repair / full re-solve (rule reinstalls plus
    #: load-balancer route updates across the surviving fleet).
    redistribution_time_s: float = 0.25
    #: Seed for the deterministic backoff-jitter stream.
    seed: str = "vif-fleet"


def _fleet_counter(name: str, doc: str):
    """A counter attribute whose storage is a registry series."""

    def getter(self: "FleetCounters"):
        return self._counters[name].value

    def setter(self: "FleetCounters", value) -> None:
        self._counters[name].set(value)

    return property(getter, setter, doc=doc)


class FleetCounters:
    """Recovery observability; ``unfiltered_packets`` must stay 0.

    Fields are stored in the metrics registry as ``vif_fleet_<field>_total``
    series labeled per fleet instance, so the legacy attribute API and the
    Prometheus exposition read the same memory.  The two ``*_s``/``*_bps``
    fields are cumulative sums, not event counts.
    """

    FIELDS = (
        "probes",
        "probe_misses",
        "failovers",
        "relaunches",
        "attestation_retries",
        "repairs",
        "full_resolves",
        "rules_rehomed",
        "rules_shed",
        "shed_bandwidth_bps",
        "shed_drops",
        "failclosed_drops",
        "routing_anomalies",
        "unfiltered_packets",
        "recovery_time_s",
    )

    _HELP = {
        "probes": "Heartbeat ECalls issued",
        "probe_misses": "Heartbeat ECalls that raised",
        "failovers": "Dead slots handled by recover()",
        "relaunches": "Replacement enclaves brought up",
        "attestation_retries": "Attestation attempts that hit an IAS outage",
        "repairs": "Incremental allocation repairs",
        "full_resolves": "Full re-solves over the surviving fleet",
        "rules_rehomed": "Rules moved to a surviving enclave",
        "rules_shed": "Rules shed under capacity loss (blackholed)",
        "shed_bandwidth_bps": "Cumulative bandwidth of shed rules",
        "shed_drops": "Packets dropped because their rule was shed",
        "failclosed_drops": "Packets dropped because their enclave was dead",
        "routing_anomalies": "Rule-matching packets the LB left unrouted",
        "unfiltered_packets": "Delivered rule traffic no enclave adjudicated (must stay 0)",
        "recovery_time_s": "Cumulative simulated recovery time",
    }

    def __init__(
        self,
        registry: Optional["obs.MetricsRegistry"] = None,
        fleet: Optional[str] = None,
        **initial,
    ) -> None:
        reg = registry or obs.get_registry()
        self.fleet_label = fleet or obs.next_instance_label("fleet")
        self._counters = {
            name: reg.counter(
                f"vif_fleet_{name}_total",
                help=self._HELP[name],
                fleet=self.fleet_label,
            )
            for name in self.FIELDS
        }
        for name, value in initial.items():
            if name not in self._counters:
                raise TypeError(f"unknown fleet counter {name!r}")
            self._counters[name].set(value)

    probes = _fleet_counter("probes", _HELP["probes"])
    probe_misses = _fleet_counter("probe_misses", _HELP["probe_misses"])
    failovers = _fleet_counter("failovers", _HELP["failovers"])
    relaunches = _fleet_counter("relaunches", _HELP["relaunches"])
    attestation_retries = _fleet_counter(
        "attestation_retries", _HELP["attestation_retries"]
    )
    repairs = _fleet_counter("repairs", _HELP["repairs"])
    full_resolves = _fleet_counter("full_resolves", _HELP["full_resolves"])
    rules_rehomed = _fleet_counter("rules_rehomed", _HELP["rules_rehomed"])
    rules_shed = _fleet_counter("rules_shed", _HELP["rules_shed"])
    shed_bandwidth_bps = _fleet_counter(
        "shed_bandwidth_bps", _HELP["shed_bandwidth_bps"]
    )
    shed_drops = _fleet_counter("shed_drops", _HELP["shed_drops"])
    failclosed_drops = _fleet_counter(
        "failclosed_drops", _HELP["failclosed_drops"]
    )
    routing_anomalies = _fleet_counter(
        "routing_anomalies", _HELP["routing_anomalies"]
    )
    unfiltered_packets = _fleet_counter(
        "unfiltered_packets", _HELP["unfiltered_packets"]
    )
    recovery_time_s = _fleet_counter("recovery_time_s", _HELP["recovery_time_s"])

    def as_dict(self) -> Dict[str, float]:
        return {name: self._counters[name].value for name in self.FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={self._counters[n].value}" for n in self.FIELDS)
        return f"FleetCounters({inner})"


@dataclass
class RecoveryReport:
    """What one :meth:`FleetManager.recover` call did."""

    relaunched_slots: List[int] = field(default_factory=list)
    orphaned_slots: List[int] = field(default_factory=list)
    repaired: bool = False
    full_resolve: bool = False
    rules_rehomed: int = 0
    shed_rule_ids: List[int] = field(default_factory=list)
    shed_bandwidth_bps: float = 0.0

    @property
    def acted(self) -> bool:
        return bool(self.relaunched_slots or self.orphaned_slots)


@dataclass
class CarryResult:
    """One traffic round through the fleet, with fail-closed accounting."""

    delivered: List[Packet] = field(default_factory=list)
    #: ``id()`` of delivered packets adjudicated (and allowed) by a live
    #: enclave — the harness audits delivered ∖ filtered against the rules.
    filtered_ids: Set[int] = field(default_factory=set)
    allowed: int = 0
    dropped_filtered: int = 0
    unrouted: int = 0
    dropped_shed: int = 0
    dropped_failclosed: int = 0

    @property
    def sent(self) -> int:
        return (
            self.allowed
            + self.dropped_filtered
            + self.unrouted
            + self.dropped_shed
            + self.dropped_failclosed
        )


@dataclass
class RoundResult:
    """One fleet round: probe, recover, carry."""

    health: List[EnclaveHealth]
    recovery: RecoveryReport
    carry: CarryResult


# Internal per-packet verdict tags.
_ALLOWED = "allowed"
_DROPPED = "dropped"
_UNROUTED = "unrouted"
_SHED = "shed"
_FAILCLOSED = "failclosed"


class FleetManager:
    """Keeps an :class:`IXPController` fleet serving through failures."""

    def __init__(
        self,
        controller: IXPController,
        session: Optional[VIFSession] = None,
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.controller = controller
        self.session = session
        self.config = config or FleetConfig()
        self.counters = FleetCounters()
        # Carry-path conservation books.  These are incremented ONLY inside
        # carry() (FleetBurstFilter routes its drops into the shared
        # shed/failclosed counters too, which is why the invariant needs its
        # own offered/outcome series rather than reusing FleetCounters).
        registry = obs.get_registry()
        label = self.counters.fleet_label
        self._carry_counters = {
            name: registry.counter(
                f"vif_fleet_carry_{name}_total",
                help=f"Carry-path packets: {name}",
                fleet=label,
            )
            for name in (
                "offered",
                "allowed",
                "dropped_filtered",
                "unrouted",
                "shed",
                "failclosed",
            )
        }
        self._recovery_hist = registry.histogram(
            "vif_fleet_recovery_seconds",
            help="Simulated recovery time per acted recover() call",
            buckets=obs.RECOVERY_BUCKETS,
            fleet=label,
        )
        registry.register_invariant(
            f"fleet_carry_conservation/{label}", self._carry_violation
        )
        self._rng = deterministic_rng(f"{self.config.seed}/backoff")
        self._health: List[EnclaveHealth] = []
        self._misses: List[int] = []
        self._rules = RuleSet()
        self._rule_order: List[int] = []
        self._bandwidths: List[float] = []
        self._priorities: Dict[int, int] = {}
        self._allocation: Optional[Allocation] = None
        self._problem_params: Dict[str, object] = {}
        self._shed: Set[int] = set()
        self._failed_platforms: Set[str] = set()
        self._platform_epc_caps: Dict[str, int] = {}
        self._spares_used = 0

    # -- deployment -------------------------------------------------------------

    def deploy(
        self,
        rules: RuleSet,
        bandwidths: Optional[Sequence[float]] = None,
        priorities: Optional[Dict[int, int]] = None,
        **problem_params: object,
    ) -> Allocation:
        """Solve, launch, install and (when a session is attached) attest.

        ``bandwidths`` defaults to each rule's measured ``rate_bps`` in rule
        id order; ``priorities`` feeds the shed policy (higher survives
        longer); remaining keyword arguments go to
        :class:`~repro.optim.problem.RuleDistributionProblem` (e.g.
        ``enclave_bandwidth``, ``enclaves_override``).
        """
        rule_list = rules.rules()
        if not rule_list:
            raise ConfigurationError("deploy needs at least one rule")
        if bandwidths is None:
            bandwidths = [rule.rate_bps for rule in rule_list]
        if len(bandwidths) != len(rule_list):
            raise ConfigurationError("bandwidths do not match the rule set")
        problem = RuleDistributionProblem(
            bandwidths=list(bandwidths), **problem_params
        )
        allocation = greedy_solve(problem)
        self.controller.apply_allocation(rules, allocation)

        self._rules = rules
        self._rule_order = [rule.rule_id for rule in rule_list]
        self._bandwidths = list(bandwidths)
        self._priorities = dict(priorities or {})
        self._allocation = allocation
        self._problem_params = dict(problem_params)
        self._problem_params.pop("enclaves_override", None)
        self._shed = set()
        self._sync_health(reset=True)
        if self.session is not None:
            self._attest_with_retry()
        return allocation

    # -- health monitoring --------------------------------------------------------

    def probe(self) -> List[EnclaveHealth]:
        """One heartbeat round: ``ping`` every enclave, update health."""
        self._sync_health()
        for j, enclave in enumerate(self.controller.enclaves):
            if self._health[j] is EnclaveHealth.DEAD:
                continue  # stays dead until recover() replaces it
            self.counters.probes += 1
            try:
                enclave.ecall("ping")
            except EnclaveError:
                self.counters.probe_misses += 1
                self._misses[j] += 1
                self._health[j] = (
                    EnclaveHealth.DEAD
                    if self._misses[j] >= self.config.miss_threshold
                    else EnclaveHealth.SUSPECT
                )
            else:
                self._misses[j] = 0
                self._health[j] = EnclaveHealth.HEALTHY
        return list(self._health)

    @property
    def health(self) -> List[EnclaveHealth]:
        return list(self._health)

    def health_summary(self) -> Dict[str, object]:
        """JSON-safe fleet health rollup (telemetry ``/readyz``/``/varz``).

        Counts the last-known per-slot states without probing — this is a
        read, safe to call from a scrape handler at any time.
        """
        self._sync_health()
        counts = {state.value: 0 for state in EnclaveHealth}
        for state in self._health:
            counts[state.value] += 1
        return {
            "slots": len(self._health),
            "by_state": counts,
            "all_healthy": counts[EnclaveHealth.HEALTHY.value]
            == len(self._health),
            "shed_rules": len(self._shed),
            "spares_used": self._spares_used,
        }

    @property
    def allocation(self) -> Optional[Allocation]:
        return self._allocation

    @property
    def shed_rule_ids(self) -> Set[int]:
        return set(self._shed)

    @property
    def active_rule_ids(self) -> List[int]:
        return list(self._rule_order)

    # -- multi-core sharded data plane ---------------------------------------------

    def sharded_data_plane(self, num_workers: int, **kwargs):
        """A :class:`~repro.dataplane.shard.ShardedDataPlane` over this fleet's rules.

        The workers are filter replicas of this deployment: same rule set,
        same connection-preserving mode, same sketch families, and the
        *shared fleet decision secret* — so every hash-based verdict matches
        what the fleet's enclaves would decide, and the centrally merged
        worker sketches are directly comparable with the fleet's audit logs.
        The caller owns the returned plane's lifecycle (use it as a context
        manager, call ``finish()`` for the merged result).
        """
        from repro.dataplane.shard import ShardedDataPlane

        controller = self.controller
        return ShardedDataPlane(
            rules=controller.state.rules.rules(),
            num_workers=num_workers,
            decision_secret=f"{controller.enclave_secret_seed}/fleet",
            mode=controller.mode,
            sketch_seed=controller.sketch_seed,
            **kwargs,
        )

    # -- hot rule updates (the serve control plane) ---------------------------------

    def _wanted_by_slot(self) -> List[Set[int]]:
        """Per-slot rule-id sets under the current allocation."""
        wanted: List[Set[int]] = [
            set() for _ in range(len(self.controller.enclaves))
        ]
        if self._allocation is None:
            return wanted
        for j, share_map in enumerate(self._allocation.assignments):
            if j < len(wanted):
                wanted[j] = {self._rule_order[i] for i in share_map}
        return wanted

    def install_rule(
        self,
        rule,
        bandwidth: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> List[int]:
        """Hot-install one rule: :meth:`install_rules` with one element."""
        return self.install_rules(
            [rule],
            bandwidths=None if bandwidth is None else [bandwidth],
            priorities=None if priority is None else {rule.rule_id: priority},
        )

    def install_rules(
        self,
        rules: Sequence[FilterRule],
        bandwidths: Optional[Sequence[float]] = None,
        priorities: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """Hot-install rules into the serving fleet as one change.

        The new rules' bandwidth is packed into the *existing* allocation
        over the live slots (:func:`~repro.optim.repair.pack_shares`, the
        loop failover repair runs): no installed rule moves, and only the
        slots that took a share are diff-installed and — when a victim
        session is attached — re-attested, through the same bounded
        retry/backoff machinery that failover uses.  The load-balancer
        routes are rebuilt once.  When the packing cannot fit the rules,
        the distribution is re-solved over the live slots
        (:func:`~repro.optim.greedy.greedy_solve`, which may move every
        rule); if that is infeasible too, new rules are installed *shed*,
        in :func:`~repro.optim.repair.shed_order`, until the rest fit:
        blackholed at the load balancer (fail-closed) rather than rejected,
        so their traffic never passes unfiltered.  Journals one
        ``rule_update`` event per rule, in order.  Returns the slots whose
        rule sets changed.
        """
        if self._allocation is None and self._rule_order:
            raise FleetError("deploy() the fleet before hot rule updates")
        rules = list(rules)
        if bandwidths is None:
            bandwidths = [rule.rate_bps for rule in rules]
        if len(bandwidths) != len(rules):
            raise ConfigurationError("bandwidths do not match the rules")
        new = [(rule.rule_id, float(bw)) for rule, bw in zip(rules, bandwidths)]
        ids = [rid for rid, _ in new]
        seen: Set[int] = set()
        for rid in ids:
            if rid in self._rules or rid in seen:
                raise RuleError(f"duplicate rule id {rid}")
            seen.add(rid)
        live = self._live_slots()
        # Validates the bandwidths before any book changes.
        problem = self._problem(
            self._bandwidths + [bw for _, bw in new], len(live)
        )
        for rule in rules:
            self._rules.add(rule)
        self._priorities.update(priorities or {})

        before = self._wanted_by_slot()
        kept = list(new)
        try:
            allocation = self._packed(problem, live)
        except InfeasibleError:
            allocation = self._allocation
            for victim in shed_order(new, self._priorities):
                try:
                    allocation = self._solved(kept, live)
                    break
                except InfeasibleError:
                    # No capacity for this rule: fail closed — blackhole
                    # it instead of letting its traffic pass.
                    kept.remove(victim)
                    self._shed.add(victim[0])
                    self.counters.rules_shed += 1
                    self.counters.shed_bandwidth_bps += victim[1]
        self._rule_order = self._rule_order + [rid for rid, _ in kept]
        self._bandwidths = self._bandwidths + [bw for _, bw in kept]
        return self._commit(
            "install", ids, allocation, before, self._shed.intersection(ids)
        )

    def remove_rule(self, rule_id: int) -> List[int]:
        """Hot-retract one rule: :meth:`remove_rules` with one element."""
        return self.remove_rules([rule_id])

    def remove_rules(self, rule_ids: Sequence[int]) -> List[int]:
        """Hot-retract rules from the serving fleet as one change.

        The inverse of :meth:`install_rules`: each rule's shares are
        dropped from the allocation in place (always feasible — demand only
        shrinks), no other rule moves, and only the slots that held a share
        are diff-installed and re-attested.  Removing a shed rule simply
        lifts its blackhole.  Returns the slots whose rule sets changed.
        """
        ids = list(rule_ids)
        gone: Set[int] = set()
        for rid in ids:
            if rid not in self._rules or rid in gone:
                raise RuleError(f"unknown rule id {rid}")
            gone.add(rid)
        shed = self._shed.intersection(ids)
        self._shed -= shed
        for rid in ids:
            self._rules.remove(rid)
            self._priorities.pop(rid, None)

        before = self._wanted_by_slot()
        kept = [
            k for k, rid in enumerate(self._rule_order) if rid not in gone
        ]
        renumber = {old: new for new, old in enumerate(kept)}
        self._rule_order = [self._rule_order[k] for k in kept]
        self._bandwidths = [self._bandwidths[k] for k in kept]
        allocation: Optional[Allocation] = None
        if self._allocation is not None and kept:
            allocation = Allocation(
                problem=self._problem(self._bandwidths, len(self._live_slots())),
                assignments=[
                    {
                        renumber[i]: share
                        for i, share in share_map.items()
                        if i in renumber
                    }
                    for share_map in self._allocation.assignments
                ],
            )
        return self._commit("remove", ids, allocation, before, shed)

    def _live_slots(self) -> List[int]:
        """Slots whose enclave is neither destroyed nor marked DEAD."""
        self._sync_health()
        return [
            j
            for j, enclave in enumerate(self.controller.enclaves)
            if not enclave.destroyed
            and self._health[j] is not EnclaveHealth.DEAD
        ]

    def _problem(
        self, bandwidths: Sequence[float], enclaves: int
    ) -> RuleDistributionProblem:
        """The distribution problem for ``bandwidths`` over ``enclaves``
        slots (at least one, so an all-dead fleet still validates input)."""
        return RuleDistributionProblem(
            bandwidths=list(bandwidths),
            enclaves_override=max(enclaves, 1),
            **self._problem_params,  # type: ignore[arg-type]
        )

    def _packed(
        self, problem: RuleDistributionProblem, live: List[int]
    ) -> Allocation:
        """The current allocation with the rules ``problem`` adds beyond
        the current ones packed onto the ``live`` slots."""
        assignments = (
            [dict(share_map) for share_map in self._allocation.assignments]
            if self._allocation is not None
            else [{} for _ in self.controller.enclaves]
        )
        new = range(len(self._rule_order), problem.num_rules)
        pack_shares(
            assignments, problem, live, {i: problem.bandwidths[i] for i in new}
        )
        return Allocation(problem=problem, assignments=assignments)

    def _solved(
        self, new: List[Tuple[int, float]], live: List[int]
    ) -> Allocation:
        """A full greedy re-solve of current plus ``new`` rules over ``live``."""
        if not live:
            raise InfeasibleError("no live enclave to solve onto")
        allocation = greedy_solve(
            self._problem(self._bandwidths + [bw for _, bw in new], len(live))
        )
        return self._onto_slots(allocation, live)

    def _onto_slots(self, allocation: Allocation, live: List[int]) -> Allocation:
        """Map solver enclave indices (0..n_live) back onto physical slots."""
        slot_assignments: List[Dict[int, float]] = [
            {} for _ in range(len(self.controller.enclaves))
        ]
        for solver_j, share_map in enumerate(allocation.assignments):
            if solver_j < len(live):
                slot_assignments[live[solver_j]] = dict(share_map)
            elif share_map:
                # Solver headroom asked for more enclaves than survive;
                # fold the overflow onto the last live slot (validation
                # against G may fail, in which case repair would have been
                # tried first — this is the best-effort tail).
                slot_assignments[live[-1]].update(share_map)
        return Allocation(problem=allocation.problem, assignments=slot_assignments)

    def _commit(
        self,
        action: str,
        rule_ids: List[int],
        allocation: Optional[Allocation],
        before: List[Set[int]],
        shed: Set[int],
    ) -> List[int]:
        """Install a hot update's allocation on the slots it changed."""
        self._allocation = allocation
        after = self._wanted_by_slot()
        enclaves = self.controller.enclaves
        changed = [
            j
            for j in range(len(enclaves))
            if before[j] != after[j] and not enclaves[j].destroyed
        ]
        self._install_assignments(
            allocation.assignments if allocation is not None else [], changed
        )
        if changed and self.session is not None:
            # A rule change alters the enclave's trusted state; re-attest
            # the touched enclaves through the failover retry/backoff path.
            for j in changed:
                self.session.invalidate_attestation(j)
            self._attest_with_retry()
        for rule_id in rule_ids:
            self._journal_rule_update(
                action, rule_id, changed, shed=rule_id in shed
            )
        return changed

    def _journal_rule_update(
        self, action: str, rule_id: int, changed: List[int], shed: bool
    ) -> None:
        obs.get_registry().counter(
            "vif_fleet_rule_updates_total",
            help="Hot rule deltas applied to a serving fleet, by action",
            fleet=self.counters.fleet_label,
            action=action,
        ).inc()
        journal = obs.get_journal()
        if journal.enabled:
            journal.emit(
                "rule_update",
                action=action,
                rule_id=rule_id,
                changed_slots=list(changed),
                shed=shed,
                active_rules=len(self._rule_order),
            )

    # -- fault entry points (used by repro.faults and tests) ----------------------

    def inject_crash(self, slot: int, platform_lost: bool = False) -> None:
        """Kill the enclave at ``slot``; optionally take its platform too."""
        slot = self._resolve_slot(slot)
        enclave = self.controller.enclaves[slot]
        enclave.destroy()
        if platform_lost:
            self._failed_platforms.add(enclave.platform.platform_id)

    def inject_epc_exhaustion(self, slot: int) -> None:
        """Kill the enclave at ``slot`` and EPC-starve its platform.

        A relaunch on the starved platform fails at load time
        (:class:`~repro.errors.EnclaveMemoryError` charging the base
        footprint), forcing the orphan/repair recovery path.
        """
        slot = self._resolve_slot(slot)
        enclave = self.controller.enclaves[slot]
        enclave.destroy()
        self._platform_epc_caps[enclave.platform.platform_id] = 1

    def _resolve_slot(self, slot: int) -> int:
        n = len(self.controller.enclaves)
        if n == 0:
            raise FleetError("fleet is empty")
        return slot % n

    # -- recovery ---------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Handle every DEAD slot: relaunch, repair, or shed — in that order."""
        self._sync_health()
        recovery_start_s = self.counters.recovery_time_s
        report = RecoveryReport()
        dead = [
            j
            for j, h in enumerate(self._health)
            if h is EnclaveHealth.DEAD or self.controller.enclaves[j].destroyed
        ]
        if not dead:
            return report
        for j in dead:
            self.counters.failovers += 1
            if self._relaunch(j) is not None:
                report.relaunched_slots.append(j)
            else:
                report.orphaned_slots.append(j)

        if report.relaunched_slots and self.session is not None:
            for j in report.relaunched_slots:
                self.session.invalidate_attestation(j)
            self._attest_with_retry()
        for j in report.relaunched_slots:
            self.counters.relaunches += 1
            self._health[j] = EnclaveHealth.HEALTHY
            self._misses[j] = 0

        if report.orphaned_slots:
            self._rehome_orphans(report)
        if report.acted:
            self._recovery_hist.observe(
                self.counters.recovery_time_s - recovery_start_s
            )
            journal = obs.get_journal()
            if journal.enabled:
                journal.emit(
                    "failover",
                    relaunched_slots=list(report.relaunched_slots),
                    orphaned_slots=list(report.orphaned_slots),
                    repaired=report.repaired,
                    full_resolve=report.full_resolve,
                    rules_rehomed=report.rules_rehomed,
                    shed_rule_ids=list(report.shed_rule_ids),
                    shed_bandwidth_bps=report.shed_bandwidth_bps,
                )
        return report

    def run_round(self, packets: Sequence[Packet]) -> RoundResult:
        """One operational round: probe health, recover, carry traffic."""
        with obs.span("fleet.round", fleet=self.counters.fleet_label):
            with obs.span("fleet.probe"):
                health = self.probe()
            with obs.span("fleet.recover"):
                recovery = self.recover()
            with obs.span("fleet.carry", packets=len(packets)):
                carry = self.carry(packets)
        return RoundResult(health=health, recovery=recovery, carry=carry)

    # -- data path ----------------------------------------------------------------

    def carry(self, packets: Sequence[Packet]) -> CarryResult:
        """Move packets through the fleet, failing closed across failover.

        Unlike :meth:`IXPController.carry`, a burst that hits a dead enclave
        does not abort the round: its packets are dropped (fail-closed,
        counted in ``dropped_failclosed``), the slot is marked DEAD for the
        next :meth:`recover`, and the rest of the traffic flows on.
        """
        packets = list(packets)
        tags, rules = self._adjudicate(packets)
        record_flight(zip(packets, rules, tags))
        result = CarryResult()
        for packet, tag, rule in zip(packets, tags, rules):
            if tag == _ALLOWED:
                result.allowed += 1
                result.delivered.append(packet)
                result.filtered_ids.add(id(packet))
            elif tag == _DROPPED:
                result.dropped_filtered += 1
            elif tag == _UNROUTED:
                result.unrouted += 1
                result.delivered.append(packet)
                # Final audit of the fail-closed invariant: a packet
                # delivered without an enclave verdict must match no rule
                # (active or shed).  Structurally unreachable; counted,
                # never hidden.
                if rule is not None:
                    self.counters.unfiltered_packets += 1
            elif tag == _SHED:
                result.dropped_shed += 1
            else:
                result.dropped_failclosed += 1
        self.counters.shed_drops += result.dropped_shed
        self.counters.failclosed_drops += result.dropped_failclosed
        cc = self._carry_counters
        cc["offered"].inc(len(packets))
        cc["allowed"].inc(result.allowed)
        cc["dropped_filtered"].inc(result.dropped_filtered)
        cc["unrouted"].inc(result.unrouted)
        cc["shed"].inc(result.dropped_shed)
        cc["failclosed"].inc(result.dropped_failclosed)
        return result

    def _adjudicate(
        self, packets: List[Packet]
    ) -> Tuple[List[str], List[Optional[FilterRule]]]:
        """Per-packet verdict tags and matched rules; one ECall burst per
        live slot (:meth:`IXPController.bursts_by_slot`)."""
        controller = self.controller
        routed = controller.load_balancer.route_burst(packets)
        if controller.load_balancer.rules is self._rules:
            rules = [rule for _, rule in routed]
        else:
            rules = [self._rules.match(p.five_tuple) for p in packets]
        # Anything no branch below clears stays dropped: fail-closed.
        tags = [_FAILCLOSED] * len(packets)
        for idx, (target, _) in enumerate(routed):
            if target is BLACKHOLE:
                tags[idx] = _SHED
            elif target is None:
                # Cross-check the load balancer: if the authoritative rule
                # set matches this packet, "unrouted" would deliver rule
                # traffic unfiltered — drop it instead (fail-closed).
                if rules[idx] is not None:
                    self.counters.routing_anomalies += 1
                else:
                    tags[idx] = _UNROUTED
        enclaves = controller.enclaves
        for slot, positions in controller.bursts_by_slot(routed):
            if (
                slot >= len(enclaves)
                or enclaves[slot].destroyed
                or (
                    slot < len(self._health)
                    and self._health[slot] is EnclaveHealth.DEAD
                )
            ):
                self._mark_dead(slot)
                continue
            try:
                verdicts = enclaves[slot].ecall(
                    "process_burst", [packets[pos] for pos in positions]
                )
            except EnclaveSealedError:
                # Death discovered on the data path: fail closed, flag the
                # slot, keep the round going.
                self._mark_dead(slot)
            else:
                for pos, ok in zip(positions, verdicts):
                    tags[pos] = _ALLOWED if ok else _DROPPED
        return tags, rules

    def _mark_dead(self, slot: int) -> None:
        self._sync_health()
        if 0 <= slot < len(self._health):
            self._health[slot] = EnclaveHealth.DEAD
            self._misses[slot] = self.config.miss_threshold

    # -- recovery internals --------------------------------------------------------

    def _relaunch(self, slot: int):
        """Try to replace the enclave at ``slot``; None when impossible."""
        old = self.controller.enclaves[slot]
        candidates: List[Platform] = []
        if old.platform.platform_id not in self._failed_platforms:
            candidates.append(old.platform)
        while True:
            if candidates:
                platform = candidates.pop(0)
            elif self._spares_used < self.config.spare_platforms:
                self._spares_used += 1
                platform = Platform(f"ixp-spare-{self._spares_used}")
            else:
                return None
            epc_cap = self._platform_epc_caps.get(platform.platform_id)
            epc = (
                EPCAccounting(epc_limit_bytes=epc_cap, hard_limit_bytes=epc_cap)
                if epc_cap
                else None
            )
            try:
                enclave = self.controller.relaunch_filter(
                    slot, platform=platform, epc=epc
                )
                self._reinstall_slot(slot)
            except EnclaveMemoryError:
                # EPC-starved platform: unusable for this (or any) slice.
                self._failed_platforms.add(platform.platform_id)
                self.controller.enclaves[slot].destroy()
                continue
            self.counters.recovery_time_s += self.config.relaunch_time_s
            return enclave

    def _reinstall_slot(self, slot: int) -> None:
        """Reinstall the current allocation's slice on a fresh enclave."""
        if self._allocation is None:
            return
        enclave = self.controller.enclaves[slot]
        share_map = (
            self._allocation.assignments[slot]
            if slot < len(self._allocation.assignments)
            else {}
        )
        rule_ids = sorted(self._rule_order[i] for i in share_map)
        enclave.ecall(
            "install_rules", [self._rules.get(rid) for rid in rule_ids]
        )
        enclave.ecall(
            "set_scale_out_mode", len(self.controller.enclaves) > 1
        )
        enclave.ecall("set_assigned_rules", rule_ids)

    def _attest_with_retry(self) -> int:
        """Re-attest pending enclaves, riding out IAS outages.

        Bounded retries with exponential backoff; the jitter stream is
        deterministic (seeded), so recoveries replay exactly.  Elapsed
        (simulated) time accumulates in ``counters.recovery_time_s``.
        """
        assert self.session is not None
        delay = self.config.backoff_base_s
        attempts = self.config.max_attestation_attempts
        for attempt in range(1, attempts + 1):
            try:
                attested = self.session.attest_filters()
            except AttestationError as exc:
                self.counters.attestation_retries += 1
                self.counters.recovery_time_s += (
                    PAPER_ATTESTATION_TIMING.end_to_end_s()
                )
                if attempt == attempts:
                    raise RecoveryFailed(
                        f"attestation failed after {attempts} attempts: {exc}"
                    ) from exc
                jitter = self._rng.random() * self.config.backoff_jitter * delay
                self.counters.recovery_time_s += delay + jitter
                delay *= self.config.backoff_factor
            else:
                self.counters.recovery_time_s += (
                    attested * PAPER_ATTESTATION_TIMING.end_to_end_s()
                )
                return attested
        return 0  # unreachable

    def _rehome_orphans(self, report: RecoveryReport) -> None:
        """Repair the allocation around unusable slots, shedding if needed."""
        if self._allocation is None:
            return
        self.counters.recovery_time_s += self.config.redistribution_time_s
        dead_slots = sorted(
            {
                j
                for j in range(len(self._allocation.assignments))
                if j in set(report.orphaned_slots)
                or (
                    j < len(self.controller.enclaves)
                    and self.controller.enclaves[j].destroyed
                )
            }
        )
        orphan_rules = {
            self._rule_order[i]
            for j in dead_slots
            if j < len(self._allocation.assignments)
            for i in self._allocation.assignments[j]
        }
        try:
            repaired = repair_allocation(self._allocation, dead_slots)
        except InfeasibleError:
            self._full_resolve(dead_slots, orphan_rules, report)
            return
        self.counters.repairs += 1
        self.counters.rules_rehomed += len(orphan_rules)
        report.repaired = True
        report.rules_rehomed = len(orphan_rules)
        self._allocation = repaired
        self._install_assignments(repaired.assignments)

    def _full_resolve(
        self,
        dead_slots: List[int],
        orphan_rules: Set[int],
        report: RecoveryReport,
    ) -> None:
        """Re-solve over the survivors, shedding rules until feasible."""
        live_slots = [
            j
            for j in range(len(self.controller.enclaves))
            if j not in set(dead_slots)
            and not self.controller.enclaves[j].destroyed
        ]
        active = list(zip(self._rule_order, self._bandwidths))
        queue = shed_order(active, self._priorities)
        shed: List[Tuple[int, float]] = []
        allocation: Optional[Allocation] = None
        while True:
            remaining = [rb for rb in active if rb not in set(shed)]
            if not remaining or not live_slots:
                shed = active  # nothing can be served; shed the rest
                remaining = []
                break
            try:
                allocation = greedy_solve(
                    self._problem([bw for _, bw in remaining], len(live_slots))
                )
                break
            except InfeasibleError:
                shed.append(queue.pop(0))

        shed_ids = [rid for rid, _ in shed]
        shed_bw = sum(bw for _, bw in shed)
        if shed_ids:
            self._shed.update(shed_ids)
            self.counters.rules_shed += len(shed_ids)
            self.counters.shed_bandwidth_bps += shed_bw
            report.shed_rule_ids = sorted(shed_ids)
            report.shed_bandwidth_bps = shed_bw
        self.counters.full_resolves += 1
        report.full_resolve = True

        if allocation is None:
            self._rule_order = []
            self._bandwidths = []
            self._allocation = None
            self.controller.load_balancer.configure(self._rules, {})
            self.controller.load_balancer.blackhole(self._shed)
            return

        remaining = [rb for rb in active if rb[0] not in set(shed_ids)]
        self._rule_order = [rid for rid, _ in remaining]
        self._bandwidths = [bw for _, bw in remaining]
        rehomed = len(orphan_rules & set(self._rule_order))
        self.counters.rules_rehomed += rehomed
        report.rules_rehomed = rehomed

        self._allocation = self._onto_slots(allocation, live_slots)
        self._install_assignments(self._allocation.assignments)

    def _install_assignments(
        self,
        assignments: Sequence[Dict[int, float]],
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        """Diff-install per-slot rule sets (on ``slots`` only, when given)
        and rebuild LB routes."""
        routes: Dict[int, List[Tuple[int, float]]] = {}
        for j, share_map in enumerate(assignments):
            for i, share in share_map.items():
                routes.setdefault(self._rule_order[i], []).append((j, share))
        enclaves = self.controller.enclaves
        live = sum(1 for e in enclaves if not e.destroyed)
        for j in range(len(enclaves)) if slots is None else slots:
            enclave = enclaves[j]
            if enclave.destroyed:
                continue
            share_map = assignments[j] if j < len(assignments) else {}
            wanted_ids = {self._rule_order[i] for i in share_map}
            installed = {
                r.rule_id for r in enclave.ecall("installed_rules")
            }
            to_remove = sorted(installed - wanted_ids)
            to_add = sorted(wanted_ids - installed)
            if to_remove:
                enclave.ecall("remove_rules", to_remove)
            if to_add:
                enclave.ecall(
                    "install_rules", [self._rules.get(rid) for rid in to_add]
                )
            enclave.ecall("set_scale_out_mode", live > 1)
            enclave.ecall("set_assigned_rules", sorted(wanted_ids))
        self.controller.load_balancer.configure(self._rules, routes)
        if self._shed:
            self.controller.load_balancer.blackhole(self._shed)
        self.controller.state.rules = self._rules
        self.controller.state.rule_order = list(self._rule_order)
        self.controller.state.allocation = self._allocation

    # -- internals ----------------------------------------------------------------

    def _carry_violation(self) -> Optional[str]:
        """Carry-path conservation predicate (a registry invariant).

        Every packet offered to :meth:`carry` ends in exactly one outcome
        bucket; returns ``None`` when the books balance.
        """
        cc = self._carry_counters
        offered = cc["offered"].value
        accounted = (
            cc["allowed"].value
            + cc["dropped_filtered"].value
            + cc["unrouted"].value
            + cc["shed"].value
            + cc["failclosed"].value
        )
        if offered == accounted:
            return None
        return (
            f"fleet carry lost packets untracked: offered={offered}, "
            f"accounted={accounted} "
            f"({ {name: c.value for name, c in cc.items()} })"
        )

    def _sync_health(self, reset: bool = False) -> None:
        n = len(self.controller.enclaves)
        if reset:
            self._health = [EnclaveHealth.HEALTHY] * n
            self._misses = [0] * n
            return
        while len(self._health) < n:
            self._health.append(EnclaveHealth.HEALTHY)
            self._misses.append(0)
        del self._health[n:]
        del self._misses[n:]


class FleetBurstFilter:
    """Pipeline adapter: the whole fleet behind one burst-filter interface.

    Lets a :class:`~repro.dataplane.pipeline.FilterPipeline` keep polling
    across failovers: packets for dead enclaves get a False verdict
    (fail-closed drop), shed-rule packets get False, unmatched packets get
    the :data:`~repro.dataplane.pipeline.UNROUTED` verdict (forwarded on the
    default path, counted separately in pipeline stats).
    """

    #: The fleet records its own flight-recorder entries (with rule ids),
    #: so the pipeline must not double-record bursts filtered through here.
    records_flight = True

    def __init__(self, fleet: FleetManager) -> None:
        self.fleet = fleet

    def __call__(self, packet: Packet):
        return self.process_burst([packet])[0]

    def process_burst(self, packets: Sequence[Packet]) -> List[object]:
        packets = list(packets)
        tags, rules = self.fleet._adjudicate(packets)
        record_flight(zip(packets, rules, tags))
        verdicts: List[object] = []
        for tag in tags:
            if tag == _ALLOWED:
                verdicts.append(True)
            elif tag == _UNROUTED:
                verdicts.append(UNROUTED)
            else:
                verdicts.append(False)
        # Keep the fleet's own books consistent with the pipeline's.
        self.fleet.counters.shed_drops += sum(1 for t in tags if t == _SHED)
        self.fleet.counters.failclosed_drops += sum(
            1 for t in tags if t == _FAILCLOSED
        )
        return verdicts
