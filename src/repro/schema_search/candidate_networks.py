"""Candidate network enumeration (slides 28, 115).

A candidate network (CN) is a tree whose nodes are tuple sets (non-free
``R^K`` or free ``R``) and whose edges are schema-graph join edges; it
is *valid* when the union of its keyword sets equals the query, every
leaf is non-free, and it is not degenerate (no node joins two neighbours
through the same foreign-key column of its own — such joins force both
neighbours to bind to the same tuple, duplicating a smaller CN).

Enumeration is breadth-first over partial trees with canonical-code
deduplication (Hristidis+ VLDB 02, duplicate-free per Markowetz+
SIGMOD 07): each partial tree is canonicalised as an unrooted labelled
tree (minimum rooted AHU code over its centroids), so isomorphic
partials are generated once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.relational.schema_graph import SchemaEdge, SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import BudgetExceededError
from repro.schema_search.tuple_sets import TupleSetKey, TupleSets


@dataclass(frozen=True)
class CNNode:
    """One CN node: a tuple set occurrence."""

    key: TupleSetKey

    @property
    def table(self) -> str:
        return self.key.table

    @property
    def keywords(self) -> FrozenSet[str]:
        return self.key.keywords

    @property
    def is_free(self) -> bool:
        return self.key.is_free

    def label(self) -> str:
        return self.key.label()


class CandidateNetwork:
    """An (immutable once built) CN tree.

    ``nodes[i]`` is the i-th node; ``edges`` holds ``(a, b, schema_edge)``
    index pairs.  Node 0 is the construction root but the tree is
    semantically unrooted; equality and hashing use the canonical code.
    """

    def __init__(
        self,
        nodes: Sequence[CNNode],
        edges: Sequence[Tuple[int, int, SchemaEdge]],
    ):
        self.nodes: Tuple[CNNode, ...] = tuple(nodes)
        self.edges: Tuple[Tuple[int, int, SchemaEdge], ...] = tuple(edges)
        self._canonical: Optional[str] = None
        self._label: Optional[str] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> Dict[int, List[Tuple[int, SchemaEdge]]]:
        adj: Dict[int, List[Tuple[int, SchemaEdge]]] = {
            i: [] for i in range(len(self.nodes))
        }
        for a, b, edge in self.edges:
            adj[a].append((b, edge))
            adj[b].append((a, edge))
        return adj

    def covered_keywords(self) -> FrozenSet[str]:
        out: Set[str] = set()
        for node in self.nodes:
            out |= node.keywords
        return frozenset(out)

    def leaves(self) -> List[int]:
        adj = self.adjacency()
        if len(self.nodes) == 1:
            return [0]
        return [i for i, nbrs in adj.items() if len(nbrs) == 1]

    def is_valid(self, query: Sequence[str]) -> bool:
        if self.covered_keywords() != frozenset(k.lower() for k in query):
            return False
        return all(not self.nodes[i].is_free for i in self.leaves())

    def label(self) -> str:
        """Readable linear label (slide-28 style for path CNs), memoised."""
        if self._label is None:
            self._label = self._compute_label()
        return self._label

    def _compute_label(self) -> str:
        adj = self.adjacency()
        if len(self.nodes) == 1:
            return self.nodes[0].label()
        # For path-shaped CNs, print the actual path; otherwise list nodes.
        leaves = self.leaves()
        if len(leaves) == 2 and all(len(v) <= 2 for v in adj.values()):
            order = [leaves[0]]
            prev = None
            while len(order) < len(self.nodes):
                current = order[-1]
                for nbr, _ in adj[current]:
                    if nbr != prev:
                        prev = current
                        order.append(nbr)
                        break
            return " - ".join(self.nodes[i].label() for i in order)
        return " + ".join(sorted(n.label() for n in self.nodes))

    # ------------------------------------------------------------------
    # Canonicalisation (unrooted AHU over centroids)
    # ------------------------------------------------------------------
    def canonical_code(self) -> str:
        if self._canonical is None:
            self._canonical = self._compute_canonical()
        return self._canonical

    def _edge_label(self, edge: SchemaEdge, child_table_is_fk_owner: bool) -> str:
        direction = "v" if child_table_is_fk_owner else "^"
        return f"{edge.child}.{edge.fk.column}{direction}"

    def _rooted_code(self, root: int, adj) -> str:
        def code(node: int, parent: int) -> str:
            children = []
            for nbr, edge in adj[node]:
                if nbr == parent:
                    continue
                owner_is_child = self.nodes[nbr].table == edge.child and (
                    self.nodes[node].table == edge.parent
                )
                # When both endpoints are the same table (self-joins via
                # e.g. cite), disambiguate by which index owns the FK: the
                # edge stores child/parent tables, so compare via position
                # in the original edge tuple.
                children.append(
                    self._edge_label(edge, owner_is_child) + code(nbr, node)
                )
            children.sort()
            return f"({self.nodes[node].label()}|{''.join(children)})"

        return code(root, -1)

    def _centroids(self, adj) -> List[int]:
        n = len(self.nodes)
        if n == 1:
            return [0]
        degree = {i: len(adj[i]) for i in range(n)}
        leaves = deque(i for i in range(n) if degree[i] <= 1)
        removed = 0
        layer: List[int] = list(leaves)
        while removed + len(layer) < n:
            removed += len(layer)
            nxt: List[int] = []
            for leaf in layer:
                degree[leaf] = 0
                for nbr, _ in adj[leaf]:
                    if degree[nbr] > 0:
                        degree[nbr] -= 1
                        if degree[nbr] == 1:
                            nxt.append(nbr)
            layer = nxt
        return layer

    def _compute_canonical(self) -> str:
        adj = self.adjacency()
        return min(self._rooted_code(c, adj) for c in self._centroids(adj))

    # ------------------------------------------------------------------
    # Degeneracy check (the same-FK duplication rule)
    # ------------------------------------------------------------------
    def has_degenerate_join(self) -> bool:
        """True if some node joins two neighbours via the same FK column.

        A node n that is the FK owner on two edges with the same column
        forces both neighbours to bind to the same tuple (n.fk = a.pk and
        n.fk = b.pk implies a = b), so the CN only yields duplicates of a
        smaller CN.
        """
        used: Dict[Tuple[int, str], int] = {}
        for a, b, edge in self.edges:
            for owner_idx, other_idx in ((a, b), (b, a)):
                node = self.nodes[owner_idx]
                other = self.nodes[other_idx]
                if node.table == edge.child and other.table == edge.parent:
                    key = (owner_idx, edge.fk.column)
                    used[key] = used.get(key, 0) + 1
                    if used[key] > 1:
                        return True
                    break
        return False

    # ------------------------------------------------------------------
    # Extension (used by the generator)
    # ------------------------------------------------------------------
    def extend(
        self, at: int, edge: SchemaEdge, new_key: TupleSetKey
    ) -> "CandidateNetwork":
        nodes = self.nodes + (CNNode(new_key),)
        edges = self.edges + ((at, len(self.nodes), edge),)
        return CandidateNetwork(nodes, edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CandidateNetwork)
            and self.canonical_code() == other.canonical_code()
        )

    def __hash__(self) -> int:
        return hash(self.canonical_code())

    def __repr__(self) -> str:
        return f"CN({self.label()})"


def generate_candidate_networks(
    schema_graph: SchemaGraph,
    tuple_sets: TupleSets,
    max_size: int = 5,
    max_networks: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> List[CandidateNetwork]:
    """Breadth-first, duplicate-free CN enumeration.

    Returns valid CNs ordered by (size, label).  ``max_networks`` caps
    the output (enumeration order makes the cap deterministic).  An
    exhausted *budget* truncates enumeration the same way — the CNs
    found so far are returned and the budget records why.

    Only trees that can still become a CN within *max_size* are built:
    a partial tree needs at least ``needed`` more nodes — its free
    leaves if it has any (each must gain a neighbour, and a new node
    attaches to one node), else 1 if a keyword is uncovered, else 0.
    The kept trees are closed under leaf removal, so the list, its node
    numbering and the ``max_networks`` cut are those of the unpruned
    BFS (docs/ALGORITHMS.md; ``tests/cn_reference.py`` is the oracle).
    """
    query = frozenset(tuple_sets.keywords)
    if not query:
        return []
    non_free = tuple_sets.non_free_keys()
    if tuple_sets.covered_keywords() != query:
        # Some keyword matches nothing: AND semantics yields no CNs.
        return []

    # Per table: the nodes a new node of that table may be (R, then each
    # R^K in non_free_keys() order), and the (edge, owns-the-FK,
    # neighbour's options) steps out of it.
    tables = schema_graph.tables
    options = {t: [CNNode(TupleSetKey(t, frozenset()))] for t in tables}
    for key in non_free:
        options[key.table].append(CNNode(key))
    steps = {
        t: [(e, t == e.child, options[nbr]) for nbr, e in schema_graph.neighbors(t)]
        for t in tables
    }

    seen: Set[str] = set()
    results: List[CandidateNetwork] = []
    queue: deque = deque()

    for key in non_free:
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
            nodes, edges = cn.nodes, cn.edges
            size = len(nodes)
            degree = [0] * size
            # (FK-owning node, FK column) per edge: queued trees are
            # non-degenerate, so only a new edge can repeat a pair.
            used: Set[Tuple[int, str]] = set()
            for a, b, edge in edges:
                degree[a] += 1
                degree[b] += 1
                owner = a if nodes[a].table == edge.child else b
                used.add((owner, edge.fk.column))
            missing = query.difference(*(node.keywords for node in nodes))
            free_leaves = sum(
                1 for i in range(size) if degree[i] == 1 and nodes[i].is_free
            )
            if free_leaves == 0 and not missing:
                results.append(cn)
                if max_networks is not None and len(results) >= max_networks:
                    break
            room = max_size - size - 1  # nodes an extension may still add
            if room < 0:
                continue
            for i, node in enumerate(nodes):
                leaves_kept = free_leaves - (degree[i] == 1 and node.is_free)
                for edge, owns_fk, new_nodes in steps[node.table]:
                    if owns_fk and (i, edge.fk.column) in used:
                        continue
                    for new_node in new_nodes:
                        needed = leaves_kept + new_node.is_free
                        if needed == 0 and not missing <= new_node.keywords:
                            needed = 1
                        if needed > room:
                            continue
                        extended = CandidateNetwork(
                            nodes + (new_node,), edges + ((i, size, edge),)
                        )
                        code = extended.canonical_code()
                        if code in seen:
                            continue
                        seen.add(code)
                        queue.append(extended)
    except BudgetExceededError:
        pass  # partial enumeration; caller sees budget.exhausted

    results.sort(key=lambda c: (c.size, c.label()))
    return results
