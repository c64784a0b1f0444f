"""δ-step forward index (TASTIER, Li et al. SIGMOD 09; slides 72-73).

For every node, the set of token ids appearing on tuples reachable within
δ hops.  During type-ahead search, the candidates produced by the
smallest prefix's inverted list are pruned by checking that the token-id
*ranges* of the remaining prefixes intersect each candidate's forward
set — exactly the slide-73 example where candidate ``{11, 12, 78}`` is
pruned to ``{12}`` by ``Range(sig) = [k23, k27]``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.inverted import InvertedIndex
from repro.index.trie import Trie
from repro.relational.database import TupleId


class DeltaForwardIndex:
    """node -> sorted token ids within δ hops."""

    def __init__(
        self,
        graph: DataGraph,
        index: InvertedIndex,
        trie: Trie,
        delta: int = 2,
    ):
        self.graph = graph
        self.index = index
        self.trie = trie
        self.delta = delta
        self._forward: Dict[TupleId, List[int]] = {}
        self._build()

    def _build(self) -> None:
        ids, nbrs = self.graph.ids, self.graph.nbrs
        # Token ids directly on each node.
        local: Dict[int, Set[int]] = {}
        for node, tid in enumerate(ids):
            tokens = self.index.tokens_of(tid)
            if tokens:
                local[node] = {self.trie.token_id(t) for t in tokens if t in self.trie}
        # Propagate δ hops by iterated neighbourhood union.  A round
        # reads only the previous round's additions (*frontier_sets*,
        # never the sets it is growing), so round h adds exactly the
        # tokens first reachable at h hops.
        reach: Dict[int, Set[int]] = {
            node: set(tokens) for node, tokens in local.items()
        }
        frontier_sets = local
        for _ in range(self.delta):
            nxt: Dict[int, Set[int]] = {}
            for node, row in enumerate(nbrs):
                gathered: Set[int] = set()
                for nbr in row:
                    nbr_tokens = frontier_sets.get(nbr)
                    if nbr_tokens:
                        gathered |= nbr_tokens
                if gathered:
                    have = reach.setdefault(node, set())
                    new = gathered - have
                    if new:
                        have |= new
                        nxt[node] = new
            frontier_sets = nxt
            if not frontier_sets:
                break
        self._forward = {ids[node]: sorted(tokens) for node, tokens in reach.items()}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def tokens_within_delta(self, node: TupleId) -> List[int]:
        return list(self._forward.get(node, ()))

    def reaches_range(self, node: TupleId, lo: int, hi: int) -> bool:
        """True if *node* reaches some token id in [lo, hi] within δ hops."""
        ids = self._forward.get(node)
        if not ids:
            return False
        pos = bisect_left(ids, lo)
        return pos < len(ids) and ids[pos] <= hi

    def filter_candidates(
        self, candidates: Iterable[TupleId], ranges: Iterable[Tuple[int, int]]
    ) -> List[TupleId]:
        """Keep candidates that reach every token-id range within δ hops."""
        ranges = list(ranges)
        out = []
        for node in candidates:
            if all(self.reaches_range(node, lo, hi) for lo, hi in ranges):
                out.append(node)
        return out

    def size(self) -> int:
        return sum(len(v) for v in self._forward.values())

    def __repr__(self) -> str:
        return f"DeltaForwardIndex(delta={self.delta}, {self.size()} entries)"
