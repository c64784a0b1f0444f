"""Data-graph substrate (tutorial slide 29, "Option 3").

Models a relational database as a graph whose nodes are tuples and whose
edges are foreign-key joins, following BANKS (Bhalotia et al., ICDE 02):
node prestige derives from in-degree, edge weights penalise high fan-in.
All graph-based search algorithms (:mod:`repro.graph_search`) and the
distance/hub/reachability indexes operate on :class:`DataGraph`.  The
configurable :class:`~repro.graph.weights.BanksWeighting` is imported
from its module.
"""

from repro.graph.data_graph import DataGraph, build_data_graph

__all__ = ["DataGraph", "build_data_graph"]
