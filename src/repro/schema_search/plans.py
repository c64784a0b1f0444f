"""Join-order planning and shared-subexpression identities for CNs.

One place for the logic that was previously duplicated (and subtly
fragile) across ``evaluate.py``, ``mesh.py`` and ``parallel.py``:

* :func:`bfs_join_order` / :func:`cardinality_join_order` produce a
  left-deep join order for a CN as a list of :class:`JoinStep`; each
  step carries the schema edge that connects the new node to the
  partial result, so consumers never have to re-discover edges (the
  old ``next(e for nbr, e in adj[parent] ...)`` pattern could raise a
  bare ``StopIteration``).  Both validate the CN and raise
  :class:`~repro.resilience.errors.SearchExecutionError` for malformed
  input — non-tree edge counts, bad endpoints, disconnected nodes —
  instead of silently dropping nodes.
* :func:`cardinality_join_order` starts at the smallest tuple set and
  greedily attaches the smallest adjacent one (deterministic
  label/index tie-breaks) — the plan the E12 makespan simulation
  prices (:mod:`repro.schema_search.parallel`).
* :func:`prefix_identity` canonicalises the partial tree covered by a
  step prefix — the same unrooted-AHU-over-centroids code that
  :meth:`CandidateNetwork.canonical_code` computes — so isomorphic
  partials of different CNs share one code: a shared subexpression in
  the E12 cost model and one operator of the A4 operator mesh
  (:mod:`repro.schema_search.mesh`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.relational.schema_graph import SchemaEdge
from repro.resilience.errors import SearchExecutionError
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.tuple_sets import TupleSets


@dataclass(frozen=True)
class JoinStep:
    """One left-deep step: join *node* to the partial result via *edge*.

    The first step of a plan has ``parent is None`` and ``edge is None``
    (it seeds the pipeline with the node's tuple set).
    """

    node: int
    parent: Optional[int] = None
    edge: Optional[SchemaEdge] = None


def _validate(cn: CandidateNetwork) -> None:
    if cn.size == 0:
        raise SearchExecutionError("malformed candidate network: no nodes")
    if len(cn.edges) != cn.size - 1:
        raise SearchExecutionError(
            f"malformed candidate network over {[n.label() for n in cn.nodes]}: "
            f"{len(cn.edges)} edges for {cn.size} nodes (a CN must be a tree)"
        )
    for a, b, _ in cn.edges:
        if a == b or not (0 <= a < cn.size) or not (0 <= b < cn.size):
            raise SearchExecutionError(
                f"malformed candidate network over "
                f"{[n.label() for n in cn.nodes]}: edge ({a}, {b}) has "
                f"invalid endpoints"
            )


def _disconnected(cn: CandidateNetwork, reached: int) -> SearchExecutionError:
    return SearchExecutionError(
        f"malformed candidate network over {[n.label() for n in cn.nodes]}: "
        f"disconnected (only {reached} of {cn.size} nodes reachable)"
    )


def bfs_join_order(cn: CandidateNetwork) -> List[JoinStep]:
    """BFS-from-node-0 join order (the historical plan shape)."""
    _validate(cn)
    adj = cn.adjacency()
    steps = [JoinStep(0)]
    visited = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr, edge in adj[node]:
                if nbr not in visited:
                    visited.add(nbr)
                    steps.append(JoinStep(nbr, node, edge))
                    nxt.append(nbr)
        frontier = nxt
    if len(steps) < cn.size:
        raise _disconnected(cn, len(steps))
    return steps


def cardinality_join_order(
    cn: CandidateNetwork, tuple_sets: TupleSets
) -> List[JoinStep]:
    """Cardinality-ordered left-deep plan: smallest tuple set first.

    Starts at the node with the fewest tuples and repeatedly attaches
    the smallest tuple set adjacent to the tree built so far, so the
    driving side of every join stays small.  Ties break on node label
    and then index, making the plan (and thus its prefix codes)
    deterministic for a given CN and tuple sets.
    """
    _validate(cn)

    def rank(i: int) -> Tuple[int, str, int]:
        return (tuple_sets.size(cn.nodes[i].key), cn.nodes[i].label(), i)

    if cn.size == 1:
        return [JoinStep(0)]
    adj = cn.adjacency()
    start = min(range(cn.size), key=rank)
    steps = [JoinStep(start)]
    included = {start}
    while len(included) < cn.size:
        best: Optional[Tuple[Tuple[int, str, int], int, int, SchemaEdge]] = None
        for node in included:
            for nbr, edge in adj[node]:
                if nbr in included:
                    continue
                candidate = (rank(nbr), nbr, node, edge)
                if best is None or candidate[:3] < best[:3]:
                    best = candidate
        if best is None:
            raise _disconnected(cn, len(included))
        _, nbr, node, edge = best
        included.add(nbr)
        steps.append(JoinStep(nbr, node, edge))
    return steps


def _prefix_centroids(
    included: FrozenSet[int], adj: Dict[int, List[Tuple[int, SchemaEdge]]]
) -> List[int]:
    """Centroid(s) of the sub-tree induced by *included* (1 or 2 nodes)."""
    if len(included) == 1:
        return list(included)
    degree = {
        i: sum(1 for nbr, _ in adj[i] if nbr in included) for i in included
    }
    layer = sorted(i for i in included if degree[i] <= 1)
    removed = 0
    while removed + len(layer) < len(included):
        removed += len(layer)
        nxt = []
        for leaf in layer:
            degree[leaf] = 0
            for nbr, _ in adj[leaf]:
                if nbr in included and degree[nbr] > 0:
                    degree[nbr] -= 1
                    if degree[nbr] == 1:
                        nxt.append(nbr)
        layer = sorted(nxt)
    return layer


def prefix_identity(cn: CandidateNetwork, steps: Sequence[JoinStep]) -> str:
    """Canonical code of the partial tree covered by *steps*.

    The canonical unrooted AHU code of the induced sub-tree — the same
    string for isomorphic partials of different CNs, and identical to
    :meth:`CandidateNetwork.canonical_code` when *steps* covers the
    whole CN.
    """
    included = frozenset(step.node for step in steps)
    adj = cn.adjacency()
    nodes = cn.nodes

    def rooted(node: int, parent: int) -> str:
        children = []
        for nbr, edge in adj[node]:
            if nbr == parent or nbr not in included:
                continue
            owner_is_child = nodes[nbr].table == edge.child and (
                nodes[node].table == edge.parent
            )
            direction = "v" if owner_is_child else "^"
            sub_code = rooted(nbr, node)
            children.append(f"{edge.child}.{edge.fk.column}{direction}{sub_code}")
        children.sort()
        return f"({nodes[node].label()}|{''.join(children)})"

    return min(rooted(root, -1) for root in _prefix_centroids(included, adj))


def prefix_codes(
    cn: CandidateNetwork, steps: Sequence[JoinStep]
) -> List[str]:
    """Canonical code of every plan prefix (length 1..len(steps))."""
    return [prefix_identity(cn, steps[: length + 1]) for length in range(len(steps))]
