"""D-reachability indexes (Markowetz et al., ICDE 09; slide 124).

Precompute bounded-range reachability facts with a distance threshold D
to cap index size:

* **N2T** — node -> set of terms on tuples within D hops,
* **N2N** — node -> set of nodes within D hops,
* **R2R** — (relation, term, relation) -> reachability between a term in
  one relation and any term of another within D hops.

They are used to prune partial solutions ("this partial tree can never
reach keyword k within budget") and to prune entire candidate networks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.distance import within_hops
from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId


class DReachabilityIndex:
    """Bounded reachability facts over a data graph."""

    def __init__(self, graph: DataGraph, index: InvertedIndex, d: int = 3):
        if d < 0:
            raise ValueError("D must be >= 0")
        self.graph = graph
        self.index = index
        self.d = d
        self._n2n: Dict[TupleId, Set[TupleId]] = {}
        self._n2t: Dict[TupleId, Set[str]] = {}
        self._build()

    def _build(self) -> None:
        ids = self.graph.ids
        for i, node in enumerate(ids):
            within = {ids[j] for j in within_hops(self.graph, (i,), self.d)}
            self._n2n[node] = within
            terms: Set[str] = set()
            for other in within:
                terms |= self.index.tokens_of(other)
            self._n2t[node] = terms

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def nodes_within(self, node: TupleId) -> Set[TupleId]:
        return set(self._n2n.get(node, ()))

    def terms_within(self, node: TupleId) -> Set[str]:
        return set(self._n2t.get(node, ()))

    def can_reach_term(self, node: TupleId, term: str) -> bool:
        """True iff a tuple containing *term* lies within D hops of *node*."""
        return term.lower() in self._n2t.get(node, ())

    def can_reach_all(self, node: TupleId, terms: Iterable[str]) -> bool:
        have = self._n2t.get(node, ())
        return all(t.lower() in have for t in terms)

    def prune_candidates(
        self, candidates: Iterable[TupleId], terms: Iterable[str]
    ) -> List[TupleId]:
        """Keep candidates that can still reach every query term."""
        terms = [t.lower() for t in terms]
        return [c for c in candidates if self.can_reach_all(c, terms)]

    def relation_term_reachable(
        self, relation_a: str, term: str, relation_b: str
    ) -> bool:
        """R2R check: does *term* in *relation_a* reach *relation_b* within D?"""
        term = term.lower()
        for tid in self.index.matching_tuples(term):
            if tid.table != relation_a:
                continue
            for other in self._n2n.get(tid, ()):
                if other.table == relation_b:
                    return True
        return False

    def size(self) -> int:
        return sum(len(v) for v in self._n2n.values()) + sum(
            len(v) for v in self._n2t.values()
        )

    def __repr__(self) -> str:
        return f"DReachabilityIndex(D={self.d}, {self.size()} entries)"
