"""Query refinement by term suggestion (slides 76-78).

* ``data_cloud`` — Data Clouds (Koutrika et al., EDBT 09): suggest the
  top terms from the *results* of a query, either popularity-based
  (term frequency across results — may surface overly general terms) or
  relevance-based (attribute-weighted TF summed over score-weighted
  results).

* ``frequent_cooccurring_terms`` — Tao & Yu (EDBT 09): the top-k terms
  co-occurring with the query, computed from the inverted index alone
  without generating results first (frequency of terms in the tuples of
  the query's posting intersection).

:func:`refine_terms` offers either over a search engine's cleaned
query.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.relational.database import Database, TupleId
from repro.relational.table import Row


def data_cloud(
    db: Database,
    results: Sequence[Row],
    keywords: Sequence[str],
    k: int = 10,
    mode: str = "relevance",
    attribute_weights: Optional[Dict[str, float]] = None,
    result_scores: Optional[Sequence[float]] = None,
) -> List[Tuple[str, float]]:
    """Top-k suggested terms from a result set.

    ``mode="popularity"`` counts raw term occurrences; ``"relevance"``
    weights each occurrence by the attribute's weight and the owning
    result's score (slide 77's improved TF).
    """
    if mode not in ("popularity", "relevance"):
        raise ValueError("mode must be 'popularity' or 'relevance'")
    exclude = {kw.lower() for kw in keywords}
    scores: Dict[str, float] = {}
    weights = attribute_weights or {}
    for idx, row in enumerate(results):
        result_score = (
            result_scores[idx] if result_scores is not None else 1.0
        )
        for column in row.table.schema.text_columns:
            value = row[column]
            if value is None:
                continue
            attr_weight = weights.get(column, 1.0)
            for token in tokenize(str(value)):
                if token in exclude:
                    continue
                if mode == "popularity":
                    scores[token] = scores.get(token, 0.0) + 1.0
                else:
                    scores[token] = scores.get(token, 0.0) + attr_weight * result_score
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def frequent_cooccurring_terms(
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
) -> List[Tuple[str, int]]:
    """Top-k non-query terms in the tuples matching all keywords.

    Works entirely off the inverted index (slide 78: "capable of
    computing top-k terms efficiently without even generating results").
    """
    exclude = {kw.lower() for kw in keywords}
    matching = index.tuples_matching_all(keywords)
    counts: Counter = Counter()
    for tid in matching:
        for token in index.tokens_of(tid):
            if token not in exclude:
                counts[token] += 1
    ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def refine_terms(
    engine, text: str, k: int = 8, mode: str = "cooccurrence"
) -> List[Tuple[str, float]]:
    """Suggested refinement terms for *text* over *engine* (slides 76-78).

    ``mode="cooccurrence"`` ranks the terms co-occurring with the
    cleaned keywords off the index alone; any other mode takes the
    :func:`data_cloud` of the rows in the query's top-20 results.
    """
    engine.refresh()
    keywords = list(engine.parse(text).keywords)
    if mode == "cooccurrence":
        return [
            (term, float(count))
            for term, count in frequent_cooccurring_terms(engine.index, keywords, k=k)
        ]
    results = engine.search(text, k=20)
    rows = [row for r in results for row in r.joined.distinct_rows()]
    return data_cloud(engine.db, rows, keywords, k=k)
