"""Steiner trees by mixed-integer programming (Talukdar et al., VLDB 08).

Slide 113: "MIP uses Mixed Linear Programming to find the min Steiner
Tree (rooted at a node r)".  We formulate the rooted group Steiner tree
as a single-commodity flow MILP solved with
:func:`scipy.optimize.milp`:

* binary y_e  — edge e (directed arc) is in the tree,
* flow  f_e  — units of demand routed over arc e,
* one unit of demand is injected at the root for every keyword group
  and must be absorbed by some chosen terminal of that group (binary
  t_v per candidate terminal, one per group),
* capacity coupling  f_e <= G * y_e  forces paid-for arcs,
* objective: minimise sum of w_e * y_e.

Flow conservation guarantees connectivity to the root, so the optimum
equals the rooted group Steiner tree; minimising over candidate roots
(or fixing one) reproduces the DP optimum — cross-checked in the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.data_graph import DataGraph
from repro.graph_search.steiner import SteinerTree
from repro.relational.database import TupleId


def steiner_milp_rooted(
    graph: DataGraph,
    root: TupleId,
    groups: Sequence[Sequence[TupleId]],
) -> Optional[SteinerTree]:
    """Minimum-weight tree rooted at *root* touching every group."""
    # Imported here, not at module level: scipy is 0.5 s and 55 MB of
    # every process that imports ``repro``, and only this solver uses it.
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    groups = [list(dict.fromkeys(g)) for g in groups]
    if not groups or any(not g for g in groups):
        return None
    nodes, node_index = graph.ids, graph.index
    if root not in node_index:
        return None
    arcs: List[Tuple[int, int, float]] = [
        (u, v, w)
        for u, (row, ws) in enumerate(zip(graph.nbrs, graph.wts))
        for v, w in zip(row, ws)
    ]
    n_arcs = len(arcs)
    n_groups = len(groups)
    # Terminal selection variables: per group, per candidate terminal.
    terminal_vars: List[Tuple[int, int]] = []  # (group, node index)
    for gi, group in enumerate(groups):
        for member in group:
            if member in node_index:
                terminal_vars.append((gi, node_index[member]))
    if not terminal_vars:
        return None
    n_terms = len(terminal_vars)
    # Variable layout: [y (n_arcs, binary), f (n_arcs, continuous),
    #                   t (n_terms, binary)]
    n_vars = 2 * n_arcs + n_terms
    cost = np.zeros(n_vars)
    for i, (_, _, w) in enumerate(arcs):
        cost[i] = w
    integrality = np.concatenate(
        [np.ones(n_arcs), np.zeros(n_arcs), np.ones(n_terms)]
    )
    lb = np.zeros(n_vars)
    ub = np.concatenate(
        [np.ones(n_arcs), np.full(n_arcs, float(n_groups)), np.ones(n_terms)]
    )

    rows = []
    lbs = []
    ubs = []

    # Flow conservation: for each node v != root:
    #   inflow - outflow = demand absorbed at v = sum of t over (g, v).
    root_idx = node_index[root]
    for vi in range(len(nodes)):
        if vi == root_idx:
            continue
        row = np.zeros(n_vars)
        for ai, (u, v, _) in enumerate(arcs):
            if v == vi:
                row[n_arcs + ai] += 1.0
            if u == vi:
                row[n_arcs + ai] -= 1.0
        for ti, (gi, node_i) in enumerate(terminal_vars):
            if node_i == vi:
                row[2 * n_arcs + ti] -= 1.0
        rows.append(row)
        lbs.append(0.0)
        ubs.append(0.0)

    # Root outflow - inflow = n_groups - demand absorbed at root.
    row = np.zeros(n_vars)
    for ai, (u, v, _) in enumerate(arcs):
        if u == root_idx:
            row[n_arcs + ai] += 1.0
        if v == root_idx:
            row[n_arcs + ai] -= 1.0
    for ti, (gi, node_i) in enumerate(terminal_vars):
        if node_i == root_idx:
            row[2 * n_arcs + ti] += 1.0
    rows.append(row)
    lbs.append(float(n_groups))
    ubs.append(float(n_groups))

    # Exactly one terminal per group.
    for gi in range(n_groups):
        row = np.zeros(n_vars)
        for ti, (g, _) in enumerate(terminal_vars):
            if g == gi:
                row[2 * n_arcs + ti] = 1.0
        rows.append(row)
        lbs.append(1.0)
        ubs.append(1.0)

    # Capacity coupling: f_a - G * y_a <= 0.
    for ai in range(n_arcs):
        row = np.zeros(n_vars)
        row[n_arcs + ai] = 1.0
        row[ai] = -float(n_groups)
        rows.append(row)
        lbs.append(-np.inf)
        ubs.append(0.0)

    constraints = LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs))
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
    )
    if not result.success or result.x is None:
        return None
    y = result.x[:n_arcs]
    edges = set()
    weight = 0.0
    for ai, (u, v, w) in enumerate(arcs):
        if y[ai] > 0.5:
            a, b = nodes[u], nodes[v]
            edge = (min(a, b), max(a, b))
            if edge not in edges:
                edges.add(edge)
                weight += w
    return SteinerTree(root=root, edges=sorted(edges), weight=weight)


def steiner_milp(
    graph: DataGraph,
    groups: Sequence[Sequence[TupleId]],
    candidate_roots: Optional[Sequence[TupleId]] = None,
) -> Optional[SteinerTree]:
    """Group Steiner tree: minimise over candidate roots.

    Any optimal tree contains a member of the first group, so using the
    first group's members as candidate roots preserves optimality.
    """
    if not groups or any(not g for g in groups):
        return None
    roots = (
        list(candidate_roots)
        if candidate_roots is not None
        else list(dict.fromkeys(groups[0]))
    )
    best: Optional[SteinerTree] = None
    for root in roots:
        tree = steiner_milp_rooted(graph, root, groups)
        if tree is not None and (best is None or tree.weight < best.weight):
            best = tree
    return best
