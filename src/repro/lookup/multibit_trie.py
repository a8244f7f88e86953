"""A multi-bit (fixed-stride) trie over destination prefixes.

The paper's lookup table is a multi-bit trie; the trie here indexes rules by
their destination prefix in stride-sized chunks (default 8 bits, so a /24
walk touches three nodes) and stores the rules at the node where their
prefix terminates.  Matching a packet walks at most ``32 / stride`` nodes,
collecting candidate rules along the path (all trie ancestors of the
destination address), then picks the most specific candidate whose full
pattern matches — overlapping coarse/fine rules resolve exactly like
:class:`~repro.core.rules.RuleSet`.

Batch insertion (:meth:`insert_batch`) models the Appendix F hybrid design:
newly observed flows are converted to exact-match rules and inserted in one
batch per update period (Table II measures this cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.errors import LookupError_

if TYPE_CHECKING:  # imported for annotations only — avoids a core<->lookup cycle
    from repro.core.rules import FilterRule
    from repro.dataplane.packet import FiveTuple


class _TrieNode:
    """One fixed-stride node: child table plus locally terminating rules."""

    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: Dict[int, "_TrieNode"] = {}
        self.rules: List[FilterRule] = []


@dataclass(frozen=True)
class TrieStats:
    """Size statistics used by memory accounting and tests."""

    num_rules: int
    num_nodes: int
    max_depth: int


class MultiBitTrie:
    """Fixed-stride multi-bit trie mapping packets to filter rules."""

    def __init__(self, stride_bits: int = 8) -> None:
        if stride_bits not in (1, 2, 4, 8, 16):
            raise ValueError("stride_bits must divide 32 and be one of 1,2,4,8,16")
        self.stride_bits = stride_bits
        self._chunk_mask = (1 << stride_bits) - 1
        self._root = _TrieNode()
        self._num_rules = 0
        self._num_nodes = 1
        self._rule_ids: set = set()

    # -- insertion -----------------------------------------------------------

    def insert(self, rule: FilterRule) -> None:
        """Insert one rule keyed by its destination prefix.

        All validation happens *before* :meth:`_walk_to` allocates interior
        nodes, so a rejected insert can never leave orphan nodes behind (or
        leave ``_num_nodes`` counting nodes that hold no rule path) — the
        ``stats()`` walk and the incremental counter always agree.
        """
        if rule.rule_id in self._rule_ids:
            raise LookupError_(f"rule {rule.rule_id} already installed")
        # Touch the compiled prefix fields up front: a malformed pattern
        # fails here, before any node is created.
        pattern = rule.pattern
        _ = pattern.dst_net_int, pattern.dst_prefix_len
        if pattern.dst_version != 4:
            # The walk chunks a 32-bit address; a 128-bit prefix would shift
            # by a negative count partway down, after nodes were allocated.
            raise LookupError_(
                f"rule {rule.rule_id}: the trie indexes IPv4 destinations "
                f"only, not {pattern.dst_prefix}"
            )
        node = self._walk_to(rule, create=True)
        node.rules.append(rule)
        self._rule_ids.add(rule.rule_id)
        self._num_rules += 1

    def insert_batch(self, rules: Iterable[FilterRule]) -> int:
        """Insert many rules at once (Appendix F batch update); returns count."""
        count = 0
        for rule in rules:
            self.insert(rule)
            count += 1
        return count

    def remove(self, rule: FilterRule) -> None:
        """Remove a previously inserted rule (nodes are left in place)."""
        if rule.rule_id not in self._rule_ids:
            raise LookupError_(f"rule {rule.rule_id} is not installed")
        node = self._walk_to(rule, create=False)
        if node is None:
            raise LookupError_(
                f"rule {rule.rule_id} not found on its trie path (corrupt trie)"
            )
        node.rules[:] = [r for r in node.rules if r.rule_id != rule.rule_id]
        self._rule_ids.discard(rule.rule_id)
        self._num_rules -= 1

    # -- lookup ----------------------------------------------------------------

    def lookup(self, flow: FiveTuple) -> Optional[FilterRule]:
        """Most-specific installed rule matching ``flow``, or None.

        Returns the same answer a linear most-specific scan would, but only
        examines rules stored on the trie path of the destination address.
        """
        best: Optional[FilterRule] = None
        address = flow.dst_ip_int  # cached at FiveTuple construction
        stride = self.stride_bits
        chunk_mask = self._chunk_mask
        node = self._root
        depth = 0
        while True:
            for rule in node.rules:
                if not rule.pattern.matches(flow):
                    continue
                if best is None or self._more_specific(rule, best):
                    best = rule
            if depth >= 32:
                break
            chunk = (address >> (32 - depth - stride)) & chunk_mask
            child = node.children.get(chunk)
            if child is None:
                break
            node = child
            depth += stride
        return best

    # -- accounting --------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_rules

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._rule_ids

    def stats(self) -> TrieStats:
        """Walk the trie and report size statistics."""
        num_nodes = 0
        max_depth = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            num_nodes += 1
            max_depth = max(max_depth, depth)
            for child in node.children.values():
                stack.append((child, depth + 1))
        return TrieStats(
            num_rules=self._num_rules, num_nodes=num_nodes, max_depth=max_depth
        )

    def rules(self) -> List[FilterRule]:
        """All installed rules (unordered walk, sorted by id for determinism)."""
        out: List[FilterRule] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            out.extend(node.rules)
            stack.extend(node.children.values())
        return sorted(out, key=lambda r: r.rule_id)

    # -- internals ------------------------------------------------------------

    def _walk_to(self, rule: FilterRule, create: bool) -> Optional[_TrieNode]:
        """Walk (creating nodes if asked) to where ``rule``'s prefix ends."""
        address = rule.pattern.dst_net_int  # compiled at pattern construction
        prefix_len = rule.pattern.dst_prefix_len
        node = self._root
        depth = 0
        # Rules whose prefix length is not a stride multiple live at the last
        # full-stride ancestor; matching still works because lookup collects
        # candidates along the whole path and re-checks the full pattern.
        while depth + self.stride_bits <= prefix_len:
            chunk = self._chunk(address, depth)
            child = node.children.get(chunk)
            if child is None:
                if not create:
                    return None
                child = _TrieNode()
                node.children[chunk] = child
                self._num_nodes += 1
            node = child
            depth += self.stride_bits
        return node

    def _chunk(self, address: int, depth: int) -> int:
        """The stride-sized chunk of ``address`` starting at bit ``depth``."""
        shift = 32 - depth - self.stride_bits
        return (address >> shift) & ((1 << self.stride_bits) - 1)

    @staticmethod
    def _more_specific(candidate: FilterRule, incumbent: FilterRule) -> bool:
        cs = candidate.pattern.specificity
        bs = incumbent.pattern.specificity
        if cs != bs:
            return cs > bs
        return candidate.rule_id < incumbent.rule_id
