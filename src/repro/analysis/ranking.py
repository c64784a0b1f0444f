"""Result ranking factors (slides 144-145).

* **vector space model** — queries and results as TF·IDF vectors,
  similarity by cosine;
* **proximity** — structural compactness of a tree/graph result
  (weighted size and root-to-keyword distances);
* **authority** — PageRank adapted to data graphs: authority flows in
  both directions of an edge, with per-edge-type weights (an
  entity-entity link transfers more authority than entity-attribute).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.text import tokenize
from repro.relational.database import TupleId


class VectorSpaceRanker:
    """TF·IDF vector space over arbitrary text documents."""

    def __init__(self, documents: Dict[object, str]):
        self._tf: Dict[object, Counter] = {}
        self._df: Counter = Counter()
        for doc_id, text in documents.items():
            bag = Counter(tokenize(text))
            self._tf[doc_id] = bag
            for token in bag:
                self._df[token] += 1
        self._n = len(documents) or 1

    def idf(self, token: str) -> float:
        return math.log((self._n + 1) / (self._df.get(token, 0) + 1)) + 1.0

    def _weight(self, bag: Counter, token: str) -> float:
        tf = bag.get(token, 0)
        if tf == 0:
            return 0.0
        return (1.0 + math.log(tf)) * self.idf(token)

    def score(self, doc_id: object, keywords: Sequence[str]) -> float:
        """Cosine similarity between the query and one document."""
        bag = self._tf.get(doc_id)
        if bag is None:
            return 0.0
        query_bag = Counter(k.lower() for k in keywords)
        dot = 0.0
        for token, qtf in query_bag.items():
            dot += qtf * self.idf(token) * self._weight(bag, token)
        doc_norm = math.sqrt(sum(self._weight(bag, t) ** 2 for t in bag))
        query_norm = math.sqrt(
            sum((qtf * self.idf(t)) ** 2 for t, qtf in query_bag.items())
        )
        if doc_norm == 0 or query_norm == 0:
            return 0.0
        return dot / (doc_norm * query_norm)

    def rank(
        self, keywords: Sequence[str], k: Optional[int] = None
    ) -> List[Tuple[object, float]]:
        scored = [
            (doc_id, self.score(doc_id, keywords)) for doc_id in self._tf
        ]
        scored = [(d, s) for d, s in scored if s > 0]
        scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return scored[:k] if k is not None else scored


def proximity_score(
    tree_size: int,
    root_to_keyword_distances: Sequence[float],
    size_weight: float = 0.5,
) -> float:
    """Compactness score: smaller trees with nearer keywords score higher.

    score = 1 / (1 + size_weight*(size-1) + sum(distances))
    """
    if tree_size < 1:
        raise ValueError("tree_size must be >= 1")
    penalty = size_weight * (tree_size - 1) + sum(root_to_keyword_distances)
    return 1.0 / (1.0 + penalty)


def authority_scores(
    graph: DataGraph,
    damping: float = 0.85,
    iterations: int = 30,
    edge_type_weight: Optional[Callable[[TupleId, TupleId], float]] = None,
) -> Dict[TupleId, float]:
    """PageRank with bidirectional flow and per-edge-type weights.

    ``edge_type_weight(u, v)`` scales the authority u sends to v
    (slide 145: different edge types may be treated differently);
    default weight 1.0 reproduces plain undirected PageRank.
    """
    ids, nbrs = graph.ids, graph.nbrs
    n = len(ids)
    if n == 0:
        return {}
    nodes = range(n)
    rank = [1.0 / n] * n
    out_weight: List[float] = []
    for node in nodes:
        total = 0.0
        for nbr in nbrs[node]:
            w = edge_type_weight(ids[node], ids[nbr]) if edge_type_weight else 1.0
            total += w
        out_weight.append(total)
    for _ in range(iterations):
        nxt = [(1.0 - damping) / n] * n
        for node in nodes:
            total = out_weight[node]
            if total == 0:
                share = damping * rank[node] / n
                for other in nodes:
                    nxt[other] += share
                continue
            for nbr in nbrs[node]:
                w = edge_type_weight(ids[node], ids[nbr]) if edge_type_weight else 1.0
                nxt[nbr] += damping * rank[node] * (w / total)
        rank = nxt
    return dict(zip(ids, rank))
