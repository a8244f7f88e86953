"""Incremental allocation repair after enclave failures.

When an enclave dies and cannot be relaunched (its platform is gone or
EPC-exhausted), the rules it held are *orphaned*: their traffic blackholes at
the load balancer until they are re-homed.  Re-running the full Algorithm 1
solve perturbs every enclave's rule set — which means fleet-wide rule
churn, re-installs and route updates mid-attack.  This module instead
repairs the existing :class:`~repro.optim.problem.Allocation` by greedily
re-packing *only* the orphaned bandwidth shares onto the surviving enclaves,
preserving every survivor's current assignment.  The same packing loop
(:func:`pack_shares`) places a hot-installed rule into a serving fleet.

The repair is best-effort by design (Argyraki & Cheriton's partial-filtering
argument): when the survivors cannot absorb the orphans within the
per-enclave bandwidth cap ``G`` and memory budget, it raises
:class:`~repro.errors.InfeasibleError` and the caller escalates — first to a
full re-solve over the surviving fleet, then to shedding rules (see
:func:`shed_order`, used by the fleet manager's graceful-degradation path).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError, InfeasibleError
from repro.optim.problem import Allocation, RuleDistributionProblem

#: Bandwidth slack (absolute, bits/s) below which a remainder counts as
#: placed; keeps the packing loop finite under float round-off.
_EPSILON = 1e-6


def repair_allocation(
    allocation: Allocation, failed: Sequence[int]
) -> Allocation:
    """Re-pack the shares held by ``failed`` enclaves onto the survivors.

    Returns a new :class:`Allocation` over the *same* problem in which every
    failed slot's assignment is empty, every survivor keeps its existing
    rules, and each orphaned bandwidth share is placed (splitting across
    survivors where needed).  Placement prefers survivors that already hold
    the rule (no extra memory cost), then the survivor with the most spare
    bandwidth.

    Raises :class:`InfeasibleError` when the orphans do not fit — the
    caller's cue to fall back to a full re-solve or to shed rules.
    """
    problem = allocation.problem
    n = len(allocation.assignments)
    failed_set = set(failed)
    for j in failed_set:
        if not 0 <= j < n:
            raise ConfigurationError(f"failed index {j} outside fleet of {n}")
    survivors = [j for j in range(n) if j not in failed_set]
    if not survivors:
        raise InfeasibleError("no surviving enclaves to repair onto")

    new_assignments: List[Dict[int, float]] = [
        dict(allocation.assignments[j]) if j not in failed_set else {}
        for j in range(n)
    ]

    # Aggregate orphaned shares per rule (a split rule may have lived on
    # several failed enclaves).
    orphans: Dict[int, float] = {}
    for j in failed_set:
        for i, share in allocation.assignments[j].items():
            orphans[i] = orphans.get(i, 0.0) + share

    pack_shares(new_assignments, problem, survivors, orphans)
    return Allocation(problem=problem, assignments=new_assignments)


def pack_shares(
    assignments: List[Dict[int, float]],
    problem: RuleDistributionProblem,
    slots: Sequence[int],
    shares: Dict[int, float],
) -> None:
    """Place each rule's bandwidth share onto ``slots`` of ``assignments``.

    ``shares`` maps rule index to the bandwidth still to be placed; the
    maps in ``assignments`` are extended in place and nothing already there
    moves.  Largest shares go first: they are the hardest to place and the
    most likely to need splitting, so they get first pick of the spare
    bandwidth.  Each share goes to a slot that already holds the rule (no
    extra memory cost), else to the slot with the most spare bandwidth,
    splitting across slots when one cannot take it all; ``G`` and the
    per-enclave rule cap are respected throughout.  A zero-bandwidth rule
    needs a rule slot only.

    Raises :class:`InfeasibleError` when a share does not fit; the maps may
    then be partly extended, so callers pack into a copy.
    """
    h_cap = problem.rule_capacity_per_enclave
    spare_bw = {
        j: problem.enclave_bandwidth - sum(assignments[j].values())
        for j in slots
    }

    def can_host(j: int, i: int) -> bool:
        return i in assignments[j] or len(assignments[j]) < h_cap

    for i, share in sorted(shares.items(), key=lambda kv: (-kv[1], kv[0])):
        remaining = share
        if remaining <= _EPSILON:
            home = next((j for j in slots if can_host(j, i)), None)
            if home is None:
                raise InfeasibleError(
                    f"no enclave has a free rule slot for rule {i}"
                )
            assignments[home][i] = assignments[home].get(i, 0.0) + share
            continue
        while remaining > _EPSILON:
            candidates = [
                j for j in slots if can_host(j, i) and spare_bw[j] > _EPSILON
            ]
            if not candidates:
                raise InfeasibleError(
                    f"enclaves cannot absorb rule {i}: "
                    f"{remaining:.3e} bps unplaced"
                )
            j = max(
                candidates,
                key=lambda c: (i in assignments[c], spare_bw[c], -c),
            )
            take = min(spare_bw[j], remaining)
            assignments[j][i] = assignments[j].get(i, 0.0) + take
            spare_bw[j] -= take
            remaining -= take


def shed_order(
    rule_bandwidths: Iterable[Tuple[int, float]],
    priorities: Dict[int, int] = None,
) -> List[Tuple[int, float]]:
    """The order in which rules are shed under capacity loss.

    ``rule_bandwidths`` is ``(rule_id, bandwidth)`` pairs; ``priorities``
    optionally maps rule_id to an operator-assigned priority (higher keeps
    the rule longer).  Sheds lowest-priority first, then highest-bandwidth
    first within a priority class (each shed rule frees the most capacity,
    so the fewest victims lose filtering), with rule id as the deterministic
    tiebreak.
    """
    priorities = priorities or {}
    return sorted(
        rule_bandwidths,
        key=lambda rb: (priorities.get(rb[0], 0), -rb[1], rb[0]),
    )
