"""repro — keyword-based search and exploration on databases.

A library reproduction of the ICDE 2011 tutorial by Chen, Wang & Liu:
relational and XML keyword search with the full surrounding ecosystem
(candidate networks, Steiner-tree search, ?LCA semantics, query
cleaning, type-ahead, query forms, faceted exploration, result
analysis, INEX metrics and the axiomatic evaluation framework).

Quickstart::

    from repro import KeywordSearchEngine
    from repro.datasets.bibliographic import generate_bibliographic_db

    engine = KeywordSearchEngine(generate_bibliographic_db())
    for result in engine.search("john database", k=5):
        print(result.score, result.describe())
"""

from repro.core.engine import KeywordSearchEngine
from repro.core.factory import build_engine
from repro.core.xml_engine import XmlSearchEngine
from repro.core.query import Query
from repro.core.results import SearchResult, XmlResult
from repro.relational.database import Database, TupleId
from repro.relational.schema import Column, ForeignKey, Schema, TableSchema

__version__ = "1.0.0"

__all__ = [
    "KeywordSearchEngine",
    "XmlSearchEngine",
    "build_engine",
    "Query",
    "SearchResult",
    "XmlResult",
    "Database",
    "TupleId",
    "Column",
    "ForeignKey",
    "Schema",
    "TableSchema",
    "__version__",
]
