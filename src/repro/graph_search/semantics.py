"""Alternative result semantics (slide 31).

* **Distinct root** (Kacholia+ VLDB 05, He+ SIGMOD 07): one answer per
  root r with cost(T_r) = sum_i dist(r, match_i) — cheap to compute but
  inflates the result list: many roots describe the same keyword-match
  combination.

* **Distinct core** (Qin+ ICDE 09): one answer per distinct combination
  of keyword matches (the *core*); among all roots/centers that connect
  a core within radius Dmax, the best one represents it.  This is the
  de-duplication E18 quantifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graph.data_graph import DataGraph
from repro.index.distance import bounded_bfs_distances, nearest_source_labels
from repro.relational.database import TupleId
from repro.resilience.budget import QueryBudget


@dataclass(frozen=True)
class RootedAnswer:
    """Distinct-root answer: root + per-group nearest matches + cost."""

    root: TupleId
    matches: Tuple[TupleId, ...]
    cost: float


@dataclass(frozen=True)
class CoreAnswer:
    """Distinct-core answer: the match combination + its best center."""

    core: Tuple[TupleId, ...]
    center: TupleId
    cost: float


def _distance_maps(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    dmax: float,
) -> List[Dict[TupleId, Dict[TupleId, float]]]:
    """Per group: match node -> {node within dmax: distance}."""
    out: List[Dict[TupleId, Dict[TupleId, float]]] = []
    for group in groups:
        per_match: Dict[TupleId, Dict[TupleId, float]] = {}
        for match in group:
            per_match[match] = bounded_bfs_distances(graph, [match], dmax)
        out.append(per_match)
    return out


def distinct_root_results(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    dmax: float = 4.0,
    k: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> List[RootedAnswer]:
    """All roots within *dmax* of every group, cheapest matches chosen.

    One labelled multi-source Dijkstra per group gives every node its
    distance to the group and the first strictly-nearest match in group
    order (the label's rank is the match's position in the group; two
    matches are equally near when their float path lengths are equal).
    An exhausted *budget* stops the searches early; roots every group
    has settled by then are still answered exactly.
    """
    if not groups or any(not g for g in groups):
        return []
    index, ids = graph.index, graph.ids
    per_group = [
        nearest_source_labels(
            graph,
            [(index[m], rank) for rank, m in enumerate(group) if m in index],
            dmax,
            budget,
        )
        for group in groups
    ]
    first, rest = per_group[0], per_group[1:]
    scored = sorted(
        (sum(labels[root][0] for labels in per_group), root)
        for root in first
        if all(root in labels for labels in rest)
    )
    return [
        RootedAnswer(
            ids[root],
            tuple(g[labels[root][1]] for g, labels in zip(groups, per_group)),
            cost,
        )
        for cost, root in (scored[:k] if k is not None else scored)
    ]


def distinct_core_results(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    dmax: float = 4.0,
    k: Optional[int] = None,
    max_core_combinations: int = 200_000,
) -> List[CoreAnswer]:
    """One answer per distinct keyword-match combination.

    A core (m_1..m_l) qualifies when some center node is within *dmax*
    of every m_i; its cost is the best center's summed distance (the
    "community" of Qin+ ICDE 09).
    """
    if not groups or any(not g for g in groups):
        return []
    maps = _distance_maps(graph, groups, dmax)
    n_combos = 1
    for group in groups:
        n_combos *= len(group)
    if n_combos > max_core_combinations:
        raise ValueError(
            f"core combination space too large ({n_combos})"
        )
    answers = []
    for combo in itertools.product(*groups):
        balls = [maps[gi][match] for gi, match in enumerate(combo)]
        candidates = set(balls[0])
        for ball in balls[1:]:
            candidates &= set(ball)
        if not candidates:
            continue
        center = min(
            candidates, key=lambda c: (sum(b[c] for b in balls), c)
        )
        cost = sum(b[center] for b in balls)
        answers.append(CoreAnswer(tuple(combo), center, cost))
    answers.sort(key=lambda a: (a.cost, a.core))
    return answers[:k] if k is not None else answers
