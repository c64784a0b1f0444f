"""Keyword-based database selection (Yu et al., SIGMOD 07).

Given a keyword query and many candidate databases, rank databases by
their ability to produce *joint* answers.  Plain document-frequency
summaries overrate databases where the keywords occur but cannot be
connected; the paper's keyword-relationship summaries capture, for
keyword pairs, how closely their occurrences join.  Our summary stores

* per keyword: tuple frequency,
* per keyword pair: the minimum join distance (in FK hops, up to a
  horizon D) between tuples containing them, with the count of close
  pairs.

Scoring multiplies per-keyword coverage with a pairwise relationship
factor that decays with distance — a database where "widom" and "xml"
co-occur one join apart outranks one where both merely exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graph.data_graph import DataGraph, build_data_graph
from repro.index.distance import within_hops
from repro.index.inverted import InvertedIndex
from repro.relational.database import Database


@dataclass
class DatabaseSummary:
    """Offline keyword-relationship summary of one database."""

    name: str
    keyword_frequency: Dict[str, int]
    pair_distance: Dict[FrozenSet[str], int]  # min FK hops between matches
    size: int

    @classmethod
    def build(
        cls,
        name: str,
        db: Database,
        horizon: int = 4,
        vocabulary: Optional[Sequence[str]] = None,
    ) -> "DatabaseSummary":
        index = InvertedIndex(db)
        graph = build_data_graph(db)
        vocab = (
            [v.lower() for v in vocabulary]
            if vocabulary is not None
            else index.vocabulary
        )
        frequency = {
            term: index.document_frequency(term)
            for term in vocab
            if index.document_frequency(term) > 0
        }
        pair_distance: Dict[FrozenSet[str], int] = {}
        terms = sorted(frequency)
        # Pairwise min distances via bounded BFS from each term's matches.
        reach: Dict[str, Dict[int, int]] = {}
        for term in terms:
            sources = [graph.index[tid] for tid in index.matching_tuples(term)]
            reach[term] = within_hops(graph, sources, horizon)
        for a, b in itertools.combinations(terms, 2):
            best: Optional[int] = None
            b_matches = index.matching_tuples(b)
            dist_a = reach[a]
            for tid in b_matches:
                d = dist_a.get(graph.index[tid])
                if d is not None and (best is None or d < best):
                    best = d
            if best is not None:
                pair_distance[frozenset((a, b))] = best
        return cls(name, frequency, pair_distance, db.size())

    # ------------------------------------------------------------------
    def coverage(self, keywords: Sequence[str]) -> float:
        """Fraction of query keywords present at all."""
        keywords = [k.lower() for k in keywords]
        if not keywords:
            return 0.0
        present = sum(1 for k in keywords if self.keyword_frequency.get(k, 0) > 0)
        return present / len(keywords)

    def relationship_factor(self, keywords: Sequence[str]) -> float:
        """Mean pairwise closeness 1/(1+dist); 0 for unconnectable pairs."""
        keywords = sorted({k.lower() for k in keywords})
        pairs = list(itertools.combinations(keywords, 2))
        if not pairs:
            return 1.0
        total = 0.0
        for a, b in pairs:
            dist = self.pair_distance.get(frozenset((a, b)))
            if dist is not None:
                total += 1.0 / (1.0 + dist)
        return total / len(pairs)

    def score(self, keywords: Sequence[str]) -> float:
        cov = self.coverage(keywords)
        if cov < 1.0:
            return 0.0  # AND semantics: a missing keyword disqualifies
        freq = 1.0
        for keyword in {k.lower() for k in keywords}:
            freq *= math.log1p(self.keyword_frequency.get(keyword, 0))
        return freq * (0.1 + self.relationship_factor(keywords))


def rank_databases(
    summaries: Sequence[DatabaseSummary], keywords: Sequence[str]
) -> List[Tuple[DatabaseSummary, float]]:
    """Databases ranked by joint answering ability, zero scores dropped."""
    scored = [(s, s.score(keywords)) for s in summaries]
    scored = [(s, v) for s, v in scored if v > 0]
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return scored
