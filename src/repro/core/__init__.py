"""Unifying facade.

:class:`KeywordSearchEngine` (relational) and :class:`XmlSearchEngine`
(XML) wire the substrates and algorithms into the pipeline the tutorial
describes end to end: clean the query, search (schema-based, graph-based
or ?LCA), rank, and analyse (snippets, clusters, facets, clouds).
"""

from repro.core.query import Query
from repro.core.results import SearchResult, XmlResult
from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.xml_engine import XmlSearchEngine

__all__ = [
    "Query",
    "SearchResult",
    "XmlResult",
    "KeywordSearchEngine",
    "XmlSearchEngine",
    "build_engine",
]
