"""BANKS-style node prestige and edge weights (Bhalotia et al., ICDE 02).

Slide 41 cites the BANKS idea of weighting by ``1 / degree(v)``: an edge
into a tuple referenced by very many others (e.g. a famous paper cited
thousands of times) should contribute less relatedness.  We implement:

* node prestige proportional to ``log(1 + indegree)`` — highly referenced
  tuples are more prominent answers roots;
* edge weight ``1 + log(1 + indegree(target))`` — traversing into a hub
  costs more, discouraging trees glued together through hubs.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.relational.database import Database, TupleId


def _indegree(db: Database, tid: TupleId, cache: Dict[TupleId, int]) -> int:
    if tid in cache:
        return cache[tid]
    row = db.row(tid)
    count = len(db.referrers_of(row))
    cache[tid] = count
    return count


class BanksWeighting:
    """Callable pair producing BANKS edge/node weights with a shared cache."""

    def __init__(self) -> None:
        self._cache: Dict[TupleId, int] = {}

    def edge_weight(self, db: Database, u: TupleId, v: TupleId) -> float:
        # u is the referencing (child) tuple, v the referenced (parent).
        indeg = _indegree(db, v, self._cache)
        return 1.0 + math.log1p(indeg)

    def node_prestige(self, db: Database, tid: TupleId) -> float:
        return math.log1p(_indegree(db, tid, self._cache))

