"""Filter backends for the serve runtime.

The service's filter stage is backend-agnostic: anything with
``process_burst(packets) -> verdicts`` and ``apply_delta(delta)`` can sit
behind it.  Three adapters cover the stack the repo already has:

* :class:`LocalBackend` — one in-process :class:`StatelessFilter` (unit
  tests, single-core deployments).
* :class:`FleetBackend` — a :class:`~repro.core.fleet.FleetManager` behind
  :class:`~repro.core.fleet.FleetBurstFilter`; a hot delta is packed into
  the existing rule distribution, and only the enclaves it touched are
  diff-installed and re-attested through the fleet's bounded retry/backoff
  machinery.
* :class:`ShardBackend` — the multiprocessing
  :class:`~repro.dataplane.shard.ShardedDataPlane` with dead-worker
  restart enabled; the watchdog polls :meth:`ShardBackend.heal`.

``fail_closed()`` is the end-of-the-line action: when the watchdog's
restart budget is exhausted, the backend must stop passing traffic rather
than pass it unfiltered (the AITF partial-filtering stance the fleet
already takes for shed rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.filter import StatelessFilter
from repro.core.fleet import FleetBurstFilter, FleetManager
from repro.core.rules import FilterRule
from repro.dataplane.offload import OffloadEngine, OffloadLie
from repro.dataplane.packet import Packet
from repro.dataplane.shard import ShardedDataPlane
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RuleDelta:
    """One hot rule-set change, queued on the serve control plane.

    A delta is either singular (``rule`` / ``rule_id``) or a batch
    (``rules`` / ``rule_ids``) — membership-tier churn installs or retracts
    thousands of ``/32`` source rules at once, and a batch delta reaches
    every backend as **one** atomic change (one acked shard broadcast, one
    version bump), applied strictly between bursts like any other delta.
    """

    action: str  # "install" | "remove"
    rule: Optional[FilterRule] = None
    rule_id: Optional[int] = None
    rules: Optional[Tuple[FilterRule, ...]] = None
    rule_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.rules is not None:
            object.__setattr__(self, "rules", tuple(self.rules))
        if self.rule_ids is not None:
            object.__setattr__(self, "rule_ids", tuple(self.rule_ids))
        if self.action == "install":
            if self.rule is None and not self.rules:
                raise ConfigurationError("install delta needs a rule (or rules)")
        elif self.action == "remove":
            if not self.target_rule_ids:
                raise ConfigurationError(
                    "remove delta needs a rule_id (or rule_ids)"
                )
        else:
            raise ConfigurationError(
                f"unknown delta action {self.action!r} "
                "(expected 'install' or 'remove')"
            )

    @property
    def target_rules(self) -> Tuple[FilterRule, ...]:
        """The rules an install delta carries (singular form included)."""
        if self.rules is not None:
            return self.rules
        return (self.rule,) if self.rule is not None else ()

    @property
    def target_rule_ids(self) -> Tuple[int, ...]:
        """Every rule id this delta touches, in delta order."""
        if self.rule_ids is not None:
            return self.rule_ids
        if self.rules is not None:
            return tuple(rule.rule_id for rule in self.rules)
        if self.rule_id is not None:
            return (self.rule_id,)
        return (self.rule.rule_id,) if self.rule is not None else ()

    @property
    def size(self) -> int:
        return len(self.target_rule_ids)

    @property
    def target_rule_id(self) -> int:
        """The (first) rule id — journal correlation key."""
        return self.target_rule_ids[0]


class _OffloadMixin:
    """Shared offload plumbing for backends carrying an :class:`OffloadEngine`.

    The engine's tier classifies every burst first; the backend's own
    enclave path only sees the survivors plus the sampled redirects.  Rule
    deltas reach the tier in the same ``apply_delta`` call that reaches the
    enclave path (generation bump per delta), and the chaos driver's
    ``OFFLOAD_LIE`` lands through :meth:`inject_offload_lie`.
    """

    offload: Optional[OffloadEngine] = None

    def _offload_delta(self, delta: RuleDelta) -> None:
        if self.offload is not None:
            self.offload.apply_delta(delta)

    def inject_offload_lie(self, lie: OffloadLie) -> None:
        if self.offload is None:
            raise ConfigurationError("backend has no offload tier to corrupt")
        self.offload.inject_lie(lie)

    def clear_offload_lie(self) -> None:
        if self.offload is not None:
            self.offload.clear_lie()

    def offload_close_round(self, round_id: int):
        """Close one offload audit round (see OffloadAuditor.close_round)."""
        if self.offload is None:
            raise ConfigurationError("backend has no offload tier to audit")
        return self.offload.close_round(round_id)


class LocalBackend(_OffloadMixin):
    """One in-process :class:`StatelessFilter` behind the backend protocol."""

    def __init__(
        self,
        filter_: StatelessFilter,
        offload: Optional[OffloadEngine] = None,
    ) -> None:
        self.filter = filter_
        # remove_rule needs the FilterRule object; keep the live set by id
        # (installed_rules spans both tiers — membership entries included).
        self._rules: Dict[int, FilterRule] = {
            rule.rule_id: rule for rule in filter_.installed_rules()
        }
        self.offload = offload
        if offload is not None:
            offload.bind(self._enclave_burst)
            offload.tier.install_rules(list(self._rules.values()))

    @property
    def ruleset_version(self) -> int:
        return self.filter.ruleset_version

    def install_rules(self, rules: Sequence[FilterRule]) -> None:
        for rule in rules:
            self.filter.install_rule(rule)
            self._rules[rule.rule_id] = rule
        if self.offload is not None:
            self.offload.tier.install_rules(list(rules))

    def _enclave_burst(self, packets: Sequence[Packet]) -> List[object]:
        return [self.filter(packet) for packet in packets]

    def process_burst(self, packets: Sequence[Packet]) -> List[object]:
        if self.offload is not None:
            return self.offload.process_burst(packets)
        return self._enclave_burst(packets)

    def apply_delta(self, delta: RuleDelta) -> None:
        if delta.action == "install":
            for rule in delta.target_rules:
                self.filter.install_rule(rule)
                self._rules[rule.rule_id] = rule
        else:
            for rule_id in delta.target_rule_ids:
                rule = self._rules.pop(rule_id, None)
                if rule is None:
                    raise ConfigurationError(
                        f"cannot remove unknown rule {rule_id}"
                    )
                self.filter.remove_rule(rule)
        self._offload_delta(delta)

    def fail_closed(self) -> None:
        # A local filter has no load balancer to blackhole at; the service
        # stops feeding it, which is the whole fail-closed story here.
        pass

    def close(self) -> None:
        pass


class FleetBackend(_OffloadMixin):
    """A deployed fleet behind the backend protocol.

    Each hot delta is one :meth:`FleetManager.install_rules` /
    :meth:`FleetManager.remove_rules` call: the rules are packed into (or
    dropped from) the existing allocation over the live slots, only the
    slots whose rule sets changed are diff-installed and re-attested
    (bounded retry + backoff), and the load-balancer routes are rebuilt
    once.  ``heal()`` runs one probe/recover round so the watchdog also
    covers enclave deaths, not just service-stage hangs.
    """

    def __init__(
        self,
        fleet: FleetManager,
        offload: Optional[OffloadEngine] = None,
    ) -> None:
        self.fleet = fleet
        self._burst = FleetBurstFilter(fleet)
        #: Bumped once per applied delta, as on the other backends.
        self.ruleset_version = 0
        self.offload = offload
        if offload is not None:
            offload.bind(self._burst)

    def process_burst(self, packets: Sequence[Packet]) -> List[object]:
        if self.offload is not None:
            return self.offload.process_burst(packets)
        return self._burst.process_burst(packets)

    def apply_delta(self, delta: RuleDelta) -> None:
        # One change per delta, batch or not: one packing pass, one route
        # rebuild, one re-attestation per changed slot.
        if delta.action == "install":
            self.fleet.install_rules(delta.target_rules)
        else:
            self.fleet.remove_rules(delta.target_rule_ids)
        self._offload_delta(delta)
        self.ruleset_version += 1

    def heal(self) -> List[int]:
        """One probe round; recover any dead slots.  Returns them."""
        self.fleet.probe()
        dead = [
            j
            for j, health in enumerate(self.fleet.health)
            if health.value == "dead"
        ]
        if dead:
            self.fleet.recover()
        return dead

    def fail_closed(self) -> None:
        """Blackhole every active rule at the load balancer."""
        active = set(self.fleet.active_rule_ids)
        if active:
            self.fleet.controller.load_balancer.blackhole(active)

    def health_summary(self) -> Dict[str, object]:
        """Fleet health rollup surfaced on ``/readyz`` and ``/varz``."""
        return self.fleet.health_summary()

    def close(self) -> None:
        pass


class ShardBackend:
    """The multiprocessing sharded data plane behind the backend protocol."""

    def __init__(self, plane: ShardedDataPlane) -> None:
        if not plane.restart_dead_workers:
            raise ConfigurationError(
                "serve mode needs restart_dead_workers=True on the plane "
                "(the watchdog owns the restart budget)"
            )
        self.plane = plane
        self._result = None

    @property
    def ruleset_version(self) -> int:
        return self.plane.ruleset_version

    def start(self) -> None:
        if not self.plane._started:
            self.plane.start()

    def process_burst(self, packets: Sequence[Packet]) -> List[object]:
        return self.plane.process(packets)

    def apply_delta(self, delta: RuleDelta) -> None:
        if delta.action == "install":
            # One acked broadcast for the whole batch: 10k membership rules
            # cost one delta round-trip per worker, not 10k.
            self.plane.install_rules(delta.target_rules)
        else:
            self.plane.remove_rules(delta.target_rule_ids)

    def heal(self) -> List[int]:
        """Restart dead workers (within budget); returns restarted ids."""
        return self.plane.heal()

    def kill_worker(self, worker_id: int) -> None:
        """Chaos hook: terminate one worker process outright."""
        worker = self.plane._workers[worker_id % self.plane.num_workers]
        worker.terminate()
        worker.join(timeout=5.0)

    def inject_offload_lie(self, lie: OffloadLie) -> None:
        """Chaos hook: corrupt every worker's fast-drop tier (acked)."""
        self.plane.inject_offload_lie(lie)

    def health_summary(self) -> Dict[str, object]:
        """Worker-process liveness rollup for ``/readyz`` and ``/varz``."""
        alive = sum(
            1 for worker in self.plane._workers if worker.is_alive()
        )
        return {
            "workers": self.plane.num_workers,
            "alive": alive,
            "all_alive": alive == self.plane.num_workers,
            "restarts": list(self.plane._worker_restarts),
        }

    def fail_closed(self) -> None:
        # Tearing the plane down guarantees no further verdicts; the
        # service stops feeding it and sheds everything still queued.
        self.plane.close()

    def finish(self):
        """Merge worker sketches/metrics (once, before close)."""
        if self._result is None and not self.plane._closed:
            self._result = self.plane.finish()
        return self._result

    def close(self) -> None:
        self.plane.close()
