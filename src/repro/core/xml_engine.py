"""XML keyword search engine facade.

Pipeline over one XML document: clean -> ?LCA search (SLCA / ELCA /
multiway) -> XRank-style ranking -> analysis (snippets, return-node
inference, type clustering, describable clustering).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.clustering import rank_clusters, xbridge_clusters
from repro.analysis.snippets import SnippetItem, generate_snippet
from repro.core.frontend import QueryFrontEnd
from repro.core.query import Query
from repro.core.results import ResultSet, XmlResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span
from repro.resilience.budget import QueryBudget
from repro.xml_search.describable import describable_clusters
from repro.xml_search.elca import elca_candidates_verify
from repro.xml_search.slca import slca_indexed_lookup_eager, slca_multiway
from repro.xml_search.xrank import xrank_scores
from repro.xml_search.xreal import XReal
from repro.xml_search.xseek import XSeek
from repro.xmltree.index import XmlKeywordIndex
from repro.xmltree.node import Dewey, XmlNode

#: semantics -> the ?LCA algorithm that computes it.
_ALGORITHMS = {
    "slca": slca_indexed_lookup_eager,
    "multiway": slca_multiway,
    "elca": elca_candidates_verify,
}


class XmlSearchEngine(QueryFrontEnd):
    """End-to-end keyword search over one XML document: the front end's
    third executor, one rung per semantics, result LRU bypassed."""

    known_methods = tuple(_ALGORITHMS)
    method_noun = "semantics"
    unbounded_k = True

    def __init__(
        self,
        root: XmlNode,
        match_tags: bool = True,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(trace=trace, metrics=metrics)
        self.root = root
        self.match_tags = match_tags

    @cached_property
    def index(self) -> XmlKeywordIndex:
        return XmlKeywordIndex(self.root, match_tags=self.match_tags)

    @cached_property
    def xseek(self) -> XSeek:
        return XSeek(self.root)

    @cached_property
    def xreal(self) -> XReal:
        return XReal(self.root)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        text: str,
        k: Optional[int] = None,
        semantics: str = "slca",
        budget: Optional[QueryBudget] = None,
        timeout_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> ResultSet:
        """Ranked ?LCA search; ``semantics`` in slca | elca | multiway.

        An exhausted budget (``timeout_ms`` / ``max_expansions``) stops
        the anchor scan early; the SLCAs/ELCAs found so far come back
        ranked, with the result set marked ``degraded``.

        ``trace=True`` (or ``XmlSearchEngine(trace=True)``) attaches a
        span tree (``search -> cache_lookup -> parse -> substrate_build
        -> evaluate -> score -> topk``) as ``result.trace``; tracing
        never changes the evaluation order, so results are
        byte-identical with it on or off.
        """
        return self._search_impl(
            text, k, semantics, True, budget, timeout_ms, max_expansions, False, trace
        )

    _parse_canonical = staticmethod(Query.parse)

    def _execute_rung(self, query: Query, k, semantics, budget, tracer):
        """Match lists -> ?LCA roots -> XRank scores -> sort; nothing
        but *budget* running out makes the answer partial."""
        with trace_span(tracer, "parse") as psp:
            psp.add("keywords", len(query.keywords))
        if not query.keywords:
            return [], ()
        with trace_span(tracer, "substrate_build") as ssp:
            lists = self.index.match_lists(list(query.keywords))
            ssp.add("match_lists", len(lists))
            ssp.add("matches", sum(len(lst) for lst in lists))
        if any(not lst for lst in lists):
            return [], ()
        with trace_span(tracer, "evaluate") as esp:
            roots = _ALGORITHMS[semantics](
                lists,
                budget=budget,
                span=esp if tracer is not None else None,
            )
            esp.add("roots", len(roots))
        with trace_span(tracer, "score") as csp:
            scores = xrank_scores(self.index, roots, list(query.keywords))
            csp.add("scored", len(scores))
        with trace_span(tracer, "topk") as tsp:
            results = []
            for dewey in roots:
                node = self.root.node_at(dewey)
                if node is None:
                    continue
                results.append(
                    XmlResult(
                        score=scores.get(dewey, 0.0),
                        root=dewey,
                        node=node,
                        semantics=semantics,
                    )
                )
            results.sort(key=lambda r: (-r.score, r.root))
            tsp.add("results", len(results))
        return (results[:k] if k is not None else results), ()

    # ------------------------------------------------------------------
    # Structure inference
    # ------------------------------------------------------------------
    def infer_return_type(self, text: str, k: int = 3) -> List[Tuple[str, float]]:
        """XReal search-for node types for a query (slides 37-38)."""
        query = Query.parse(text)
        return self.xreal.infer_return_type(list(query.keywords))[:k]

    def return_nodes(self, result: XmlResult, text: str) -> List[XmlNode]:
        """XSeek return-node inference for one result (slide 51)."""
        query = Query.parse(text)
        return self.xseek.return_nodes(result.node, list(query.keywords))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def snippet(
        self, result: XmlResult, text: str, max_items: int = 4
    ) -> List[SnippetItem]:
        query = Query.parse(text)
        return generate_snippet(result.node, list(query.keywords), max_items)

    def cluster_by_type(
        self, results: Sequence[XmlResult], text: str
    ) -> List[Tuple[str, float, List[XmlResult]]]:
        """XBridge type clusters, ranked (slides 156-157)."""
        query = Query.parse(text)
        by_root = {r.root: r for r in results}
        clusters = xbridge_clusters(self.root, [r.root for r in results])
        ranked = rank_clusters(self.index, clusters, list(query.keywords))
        return [
            (path, score, [by_root[d] for d in clusters[path]])
            for path, score in ranked
        ]

    def cluster_by_role(
        self, results: Sequence[XmlResult], text: str
    ) -> Dict[str, List[XmlResult]]:
        """Describable clusters by keyword roles (slides 161-162)."""
        query = Query.parse(text)
        by_node = {id(r.node): r for r in results}
        clusters = describable_clusters(
            [r.node for r in results], list(query.keywords)
        )
        return {
            description: [by_node[id(n)] for n in members]
            for description, members in clusters.items()
        }
