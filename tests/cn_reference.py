"""The candidate-network enumerator this repo shipped before viability
pruning, kept verbatim as the oracle for ``test_cn_enumeration.py``.

It extends every partial tree to ``max_size`` and only then asks whether
it is valid, re-derives the option list per (tree, node, neighbour) and
re-scans every edge in ``has_degenerate_join()`` per extension — slow,
and obviously the definition.  The one edit: ``TupleSets.keyword_subsets``
is gone, so the option list is read off ``non_free_keys()`` (what that
method returned).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set

from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.candidate_networks import CandidateNetwork, CNNode
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets


def reference_candidate_networks(
    schema_graph: SchemaGraph,
    tuple_sets: TupleSets,
    max_size: int = 5,
    max_networks: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> List[CandidateNetwork]:
    query = list(tuple_sets.keywords)
    if not query:
        return []
    if tuple_sets.covered_keywords() != set(query):
        # Some keyword matches nothing: AND semantics yields no CNs.
        return []

    seen: Set[str] = set()
    results: List[CandidateNetwork] = []
    queue: deque = deque()

    for key in tuple_sets.non_free_keys():
        cn = CandidateNetwork([CNNode(key)], [])
        code = cn.canonical_code()
        if code not in seen:
            seen.add(code)
            queue.append(cn)

    try:
        while queue:
            cn = queue.popleft()
            if budget is not None:
                budget.tick_cns()
            if cn.is_valid(query):
                results.append(cn)
                if max_networks is not None and len(results) >= max_networks:
                    break
            if cn.size >= max_size:
                continue
            for i, node in enumerate(cn.nodes):
                for nbr_table, edge in schema_graph.neighbors(node.table):
                    # Candidate keyword sets for the new node: free, or any
                    # non-empty exact subset available in the target table.
                    options: List[TupleSetKey] = [TupleSetKey(nbr_table, frozenset())]
                    options.extend(
                        key
                        for key in tuple_sets.non_free_keys()
                        if key.table == nbr_table
                    )
                    for new_key in options:
                        extended = cn.extend(i, edge, new_key)
                        if extended.has_degenerate_join():
                            continue
                        code = extended.canonical_code()
                        if code in seen:
                            continue
                        seen.add(code)
                        queue.append(extended)
    except BudgetExceededError:
        pass  # partial enumeration; caller sees budget.exhausted

    results.sort(key=lambda c: (c.size, c.label()))
    return results
