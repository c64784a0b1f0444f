"""What the CN executor hands back: joined rows and its work counters.

Candidate networks are evaluated by one join engine, the index
nested-loop in :mod:`repro.schema_search.topk`; :class:`JoinedRow`
carries the per-table rows of one result so scoring functions can
inspect which tuples matched which keywords, and :class:`JoinStats`
counts the work — the cost proxy the E2/E3 top-k benchmarks report
instead of the original papers' wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.relational.table import Row


@lru_cache(maxsize=None)
def node_aliases(n: int) -> Tuple[str, ...]:
    """``("n0", ..., "n<n-1>")``, the aliases of an *n*-node answer.

    One shared tuple per arity: every cached answer of one size points
    at the same aliases instead of carrying its own copy.
    """
    return tuple(f"n{i}" for i in range(n))


@dataclass
class JoinStats:
    """Execution counters accumulated across executor calls.

    The CN executor is an index nested-loop join over rowids:
    ``joins_executed`` counts its index probes, ``tuples_read`` the
    rowids those probes returned (plus one anchor per slice),
    ``tuples_emitted`` the results produced, ``partials_dropped`` the
    partial results its in-slice bound cut and ``cursors_retired`` the
    cursors its bound-ordered loop retired at an exact tie with the k-th
    score.
    """

    tuples_read: int = 0
    tuples_emitted: int = 0
    joins_executed: int = 0
    partials_dropped: int = 0
    cursors_retired: int = 0


class JoinedRow:
    """A tuple of rows produced by joining several relations.

    ``aliases`` names each position (CN node labels such as ``"P^Q"`` or
    plain table names); two joined rows are equal iff they contain the
    same underlying rows in the same aliased positions.
    """

    __slots__ = ("aliases", "rows")

    def __init__(self, aliases: Tuple[str, ...], rows: Tuple[Row, ...]):
        if len(aliases) != len(rows):
            raise ValueError("aliases and rows must align")
        self.aliases = aliases
        self.rows = rows

    def __getitem__(self, alias: str) -> Row:
        try:
            return self.rows[self.aliases.index(alias)]
        except ValueError:
            raise KeyError(alias) from None

    def tuple_ids(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((r.table.name, r.rowid) for r in self.rows)

    def distinct_rows(self) -> List[Row]:
        seen = []
        for row in self.rows:
            if row not in seen:
                seen.append(row)
        return seen

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JoinedRow)
            and self.aliases == other.aliases
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.aliases, self.rows))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a}={r.table.name}:{r.rowid}" for a, r in zip(self.aliases, self.rows)
        )
        return f"JoinedRow({inner})"
