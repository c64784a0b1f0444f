"""Operator mesh for keyword search over relational streams
(Markowetz et al., SIGMOD 07; slide 134).

Setting: tuples *arrive over time* and no CN can be pruned — every CN
stays live, so the paper clusters the CNs' left-deep plans by common
prefixes into a mesh of shared operators.

This module implements the streaming core and the sharing accounting:

* :class:`OperatorMesh` registers every CN's plan prefix chain under
  canonical sub-CN codes — ``operator_count`` vs ``total_plan_steps``
  quantifies the structural sharing the mesh exploits (the slide-134
  "cluster these CNs to build the mesh");
* ``feed`` performs *incremental* evaluation: each arriving tuple only
  joins against previously arrived tuples, producing exactly the new
  complete results it enables (verified against batch CN evaluation in
  the tests), with join probes counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.index.text import tokenize
from repro.relational.table import Row
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.plans import bfs_join_order, prefix_codes
from repro.schema_search.tuple_sets import TupleSetKey


def _matches_tuple_set(row: Row, key: TupleSetKey, query: Sequence[str]) -> bool:
    """Streaming membership test for a tuple set (exact partition)."""
    if row.table.name != key.table:
        return False
    tokens = set(tokenize(row.text()))
    contained = frozenset(k for k in query if k in tokens)
    return contained == key.keywords


class OperatorMesh:
    """Shared streaming evaluation of many CNs."""

    def __init__(self, cns: Sequence[CandidateNetwork], query: Sequence[str]):
        self.cns = list(cns)
        self.query = [q.lower() for q in query]
        self.probe_count = 0
        self._arrived: Dict[str, List[Row]] = {}
        # Structural sharing: distinct prefix operators across all plans.
        self._operator_codes: Set[str] = set()
        self._plan_lengths: List[int] = []
        for cn in self.cns:
            chain = self._prefix_codes(cn)
            self._plan_lengths.append(len(chain))
            self._operator_codes.update(chain)
        # Adjacency cache per CN for incremental evaluation.
        self._adj = [cn.adjacency() for cn in self.cns]

    @staticmethod
    def _prefix_codes(cn: CandidateNetwork) -> List[str]:
        """Canonical code of each plan prefix (BFS order, as streamed)."""
        return prefix_codes(cn, bfs_join_order(cn))

    # ------------------------------------------------------------------
    # Sharing metrics (slide 134's point)
    # ------------------------------------------------------------------
    @property
    def operator_count(self) -> int:
        """Distinct operators in the mesh."""
        return len(self._operator_codes)

    def total_plan_steps(self) -> int:
        """Operators if every CN ran its own unshared plan."""
        return sum(self._plan_lengths)

    def sharing_ratio(self) -> float:
        total = self.total_plan_steps()
        return self.operator_count / total if total else 1.0

    # ------------------------------------------------------------------
    # Incremental streaming evaluation
    # ------------------------------------------------------------------
    def feed(self, row: Row) -> List[Tuple[int, Tuple[Row, ...]]]:
        """Process one arriving tuple.

        Returns the *new* complete results (cn index, rows by CN node
        position) that this arrival enables: assignments where the new
        tuple occupies at least one position and all other positions are
        filled from earlier arrivals.
        """
        self._arrived.setdefault(row.table.name, []).append(row)
        produced: List[Tuple[int, Tuple[Row, ...]]] = []
        for cn_index, cn in enumerate(self.cns):
            for position, node in enumerate(cn.nodes):
                if not _matches_tuple_set(row, node.key, self.query):
                    continue
                for assignment in self._complete(cn_index, {position: row}):
                    ordered = tuple(assignment[i] for i in range(cn.size))
                    seen = {(r.table.name, r.rowid) for r in ordered}
                    if len(seen) < len(ordered):
                        continue
                    # Keep only assignments where `row` is the *latest*
                    # arrival (avoids duplicates across positions when
                    # the same tuple could fill two positions).
                    produced.append((cn_index, ordered))
        return produced

    def _complete(
        self, cn_index: int, partial: Dict[int, Row]
    ) -> List[Dict[int, Row]]:
        cn = self.cns[cn_index]
        adj = self._adj[cn_index]
        n = cn.size
        if len(partial) == n:
            return [dict(partial)]
        # Next unassigned position adjacent to an assigned one.
        next_pos = None
        join_edge = None
        anchor = None
        for pos in partial:
            for nbr, edge in adj[pos]:
                if nbr not in partial:
                    next_pos, join_edge, anchor = nbr, edge, pos
                    break
            if next_pos is not None:
                break
        if next_pos is None:
            return []
        key = cn.nodes[next_pos].key
        anchor_row = partial[anchor]
        left_col, right_col = join_edge.join_columns(
            cn.nodes[anchor].table
        )
        value = anchor_row[left_col]
        out: List[Dict[int, Row]] = []
        if value is None:
            return []
        for candidate in self._arrived.get(key.table, ()):
            self.probe_count += 1
            if candidate[right_col] != value:
                continue
            if not _matches_tuple_set(candidate, key, self.query):
                continue
            # A candidate equal to an already-fed later row would double
            # count; the arrival list only holds fed tuples, so this is
            # exactly "join against the past".  The CN is a tree
            # (``bfs_join_order`` validated it), so the edge just checked
            # is next_pos's only edge into the assigned part.
            partial[next_pos] = candidate
            out.extend(self._complete(cn_index, partial))
            del partial[next_pos]
        return out
