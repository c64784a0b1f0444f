"""In-memory relational database substrate.

This subpackage provides the structured-data foundation that the keyword
search techniques surveyed in the ICDE 2011 tutorial operate on: typed
tables with primary/foreign keys whose PK/FK indexes the candidate
network executor probes, a queryable schema graph, and the joined-row
type CN results come back as.
"""

from repro.relational.schema import Column, ForeignKey, TableSchema, Schema
from repro.relational.table import Row, Table
from repro.relational.database import Database, TupleId
from repro.relational.executor import JoinedRow
from repro.relational.schema_graph import SchemaGraph, SchemaEdge

__all__ = [
    "Column",
    "ForeignKey",
    "TableSchema",
    "Schema",
    "Row",
    "Table",
    "Database",
    "TupleId",
    "JoinedRow",
    "SchemaGraph",
    "SchemaEdge",
]
