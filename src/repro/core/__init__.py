"""Unifying facade.

:class:`KeywordSearchEngine` (relational) and :class:`XmlSearchEngine`
(XML) wire the substrates and algorithms into the pipeline the tutorial
describes end to end: clean the query, search (schema-based, graph-based
or ?LCA) and rank.  Exploration over the answers (type-ahead,
refinement terms, differentiation, forms) lives beside each technique
in :mod:`repro.ambiguity`, :mod:`repro.analysis` and :mod:`repro.forms`.
"""

from repro.core.query import Query
from repro.core.results import SearchResult, XmlResult
from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine

__all__ = [
    "Query",
    "SearchResult",
    "XmlResult",
    "KeywordSearchEngine",
    "XmlSearchEngine",
    "build_engine",
]


def __getattr__(name: str):
    # Lazy, as in :mod:`repro`: only XML search needs the ?LCA library.
    if name == "XmlSearchEngine":
        from repro.core.xml_engine import XmlSearchEngine

        return XmlSearchEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
