"""Query-form model (slide 54).

A *skeleton template* is "an incomplete SQL query with only table names
and join conditions"; a *query form* adds predicate attribute slots
whose operator and expression the user fills in.  Skeletons are join
trees over the schema graph, represented like candidate networks (an
ordered node list plus schema edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.database import Database
from repro.relational.executor import JoinedRow
from repro.relational.schema_graph import SchemaEdge


@dataclass(frozen=True)
class Skeleton:
    """Join template: tables plus the edges connecting them."""

    tables: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, SchemaEdge], ...]

    @property
    def size(self) -> int:
        return len(self.tables)

    def label(self) -> str:
        return "-".join(self.tables)

    def canonical(self) -> str:
        """Order-insensitive identity for deduplication."""
        parts = sorted(
            f"{self.tables[a]}.{e.fk.column}:{self.tables[b]}"
            if self.tables[a] == e.child
            else f"{self.tables[b]}.{e.fk.column}:{self.tables[a]}"
            for a, b, e in self.edges
        )
        return "|".join(sorted(self.tables)) + "||" + "|".join(parts)


@dataclass(frozen=True)
class PredicateSlot:
    """One fillable predicate: table alias index + attribute name."""

    node: int
    table: str
    attribute: str

    def label(self) -> str:
        return f"{self.table}.{self.attribute}"


@dataclass(frozen=True)
class QueryForm:
    """A skeleton plus predicate slots (operator/expression left open)."""

    skeleton: Skeleton
    slots: Tuple[PredicateSlot, ...]
    query_class: str = "SELECT"  # SELECT | AGGR | GROUP | UNION-INTERSECT

    def label(self) -> str:
        slots = ", ".join(s.label() for s in self.slots)
        return f"{self.query_class}[{self.skeleton.label()} | {slots}]"

    def schema_terms(self) -> List[str]:
        """Terms the form index matches keywords against."""
        terms = list(self.skeleton.tables)
        terms.extend(slot.attribute for slot in self.slots)
        return [t.lower() for t in terms]

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        db: Database,
        bindings: Dict[str, object],
    ) -> List[JoinedRow]:
        """Fill predicate slots with equality *bindings* and execute.

        ``bindings`` maps ``table.attribute`` labels to required values;
        unbound slots are unconstrained (the form's open fields).  Joins
        probe the tables' own PK/FK indexes (:meth:`Table.rowids`) from
        node 0 outwards, as the CN executor does; results carry aliases
        ``n0..n{size-1}`` in skeleton node order.
        """
        names = self.skeleton.tables
        tables = [db.table(name) for name in names]
        constraints: List[List[Tuple[int, object]]] = [[] for _ in names]
        for slot in self.slots:
            if slot.label() in bindings:
                at = tables[slot.node].column_index(slot.attribute)
                constraints[slot.node].append((at, bindings[slot.label()]))

        def admits(node: int, rowid: int) -> bool:
            values = tables[node].values(rowid)
            return all(values[at] == value for at, value in constraints[node])

        # Join steps (joined node, new node, their columns), each new
        # node attached to one already joined.
        steps = []
        joined_nodes = {0}
        pending = list(self.skeleton.edges)
        while pending:
            progressed = False
            for edge_entry in list(pending):
                a, b, edge = edge_entry
                if a in joined_nodes and b not in joined_nodes:
                    src, dst = a, b
                elif b in joined_nodes and a not in joined_nodes:
                    src, dst = b, a
                else:
                    continue
                left_col, right_col = edge.join_columns(names[src])
                steps.append((src, tables[src].column_index(left_col), dst, right_col))
                joined_nodes.add(dst)
                pending.remove(edge_entry)
                progressed = True
            if not progressed:
                raise ValueError("skeleton edges do not form a connected tree")

        partials = [
            {0: rowid} for rowid in range(len(tables[0])) if admits(0, rowid)
        ]
        for src, left_at, dst, right_col in steps:
            extended = []
            for partial in partials:
                value = tables[src].values(partial[src])[left_at]
                if value is None:
                    continue  # null join keys never match (SQL semantics)
                for rowid in tables[dst].rowids(right_col, value):
                    if admits(dst, rowid):
                        extended.append({**partial, dst: rowid})
            partials = extended
        aliases = tuple(f"n{i}" for i in range(len(names)))
        return [
            JoinedRow(aliases, tuple(t.row(p[i]) for i, t in enumerate(tables)))
            for p in partials
        ]
