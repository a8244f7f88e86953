"""The slow verdict oracle: what every packet of a lap must be answered with.

``f(p)`` is stateless, so one verdict per distinct five-tuple covers the
whole cyclic trace.  The reference is deliberately not the path under test:

* ``shard_*`` — :func:`repro.dataplane.shard.run_single_process_reference`,
  one in-process filter with the same rules, blocklist and decision secret
  (the equivalence baseline the repo's own shard tests pin);
* ``fleet_paper3k`` — a standalone all-rules :class:`StatelessFilter`;
  a packet no rule matches must come back ``UNROUTED``.

The harness compares each burst's verdict list with the matching slice of
:func:`expected_verdicts` (one C-level list comparison per burst).
"""

from __future__ import annotations

from typing import List

from repro.core.filter import StatelessFilter
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import UNROUTED
from repro.dataplane.shard import run_single_process_reference


def expected_verdicts(workload) -> List[object]:
    """The expected verdict of every packet of ``workload.trace``, in order."""
    flows = list(dict.fromkeys(packet.five_tuple for packet in workload.trace))
    if workload.unmatched_unrouted:
        reference = StatelessFilter(secret="vif-bench/oracle")
        reference.install_rules(workload.rules)
        verdicts = []
        for flow in flows:
            decision = reference.decide_flow(flow)
            verdicts.append(UNROUTED if decision.rule is None else decision.allowed)
    else:
        verdicts = run_single_process_reference(
            workload.rules,
            [Packet(five_tuple=flow) for flow in flows],
            blocklist=workload.blocklist,
        ).verdicts
    by_flow = dict(zip(flows, verdicts))
    return [by_flow[packet.five_tuple] for packet in workload.trace]


def mismatches(got: List[object], want: List[object]) -> int:
    """How many verdicts of one burst differ from the oracle's."""
    if got == want:
        return 0
    return sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
