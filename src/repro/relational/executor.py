"""A small relational executor: select, project, hash join.

Candidate networks are evaluated as left-deep chains of equi-joins along
foreign keys; :class:`JoinedRow` carries the per-table rows so scoring
functions can inspect which tuples matched which keywords.  The executor
counts the tuples it touches (``JoinStats``) — those counters are what
the E2/E3 top-k benchmarks report instead of the original papers'
wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.table import Row


@dataclass
class JoinStats:
    """Execution counters accumulated across executor calls.

    The engine's CN executor (:mod:`repro.schema_search.topk`) is an
    index nested-loop join over rowids: ``joins_executed`` counts its
    index probes, ``tuples_read`` the rowids those probes returned (plus
    one anchor per slice), ``tuples_emitted`` the results produced and
    ``partials_dropped`` the partial results its in-slice bound cut; it
    builds nothing, so the sharing counters stay 0 there.  They belong
    to the operator-sharing evaluator
    (:class:`~repro.schema_search.evaluate.SharedCNEvaluator`):
    ``subexpressions_materialized`` intermediates stored,
    ``joins_saved`` joins a cached prefix skipped, ``reuse_hits`` CN
    evaluations seeded from one.  ``semijoin_pruned`` counts the tuples
    semi-join pre-filtering removed before any join ran.
    """

    tuples_read: int = 0
    tuples_emitted: int = 0
    joins_executed: int = 0
    reuse_hits: int = 0
    joins_saved: int = 0
    subexpressions_materialized: int = 0
    semijoin_pruned: int = 0
    partials_dropped: int = 0

    def merge(self, other: "JoinStats") -> None:
        self.tuples_read += other.tuples_read
        self.tuples_emitted += other.tuples_emitted
        self.joins_executed += other.joins_executed
        self.reuse_hits += other.reuse_hits
        self.joins_saved += other.joins_saved
        self.subexpressions_materialized += other.subexpressions_materialized
        self.semijoin_pruned += other.semijoin_pruned
        self.partials_dropped += other.partials_dropped


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

    def extend(self, alias: str, row: Row) -> "JoinedRow":
        return JoinedRow(self.aliases + (alias,), self.rows + (row,))

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


def select(
    rows: Iterable[Row],
    predicate: Callable[[Row], bool],
    stats: Optional[JoinStats] = None,
) -> Iterator[Row]:
    """Filter *rows* by *predicate*, counting tuples read."""
    for row in rows:
        if stats is not None:
            stats.tuples_read += 1
        if predicate(row):
            if stats is not None:
                stats.tuples_emitted += 1
            yield row


def project(rows: Iterable[Row], columns: Sequence[str]) -> Iterator[Tuple[object, ...]]:
    """Project *rows* onto *columns*."""
    for row in rows:
        yield tuple(row[c] for c in columns)


def hash_join(
    left: Iterable[JoinedRow],
    left_alias: str,
    left_column: str,
    right: Iterable[Row],
    right_alias: str,
    right_column: str,
    stats: Optional[JoinStats] = None,
) -> Iterator[JoinedRow]:
    """Equi-join partial results *left* with relation *right*.

    Builds a hash table over *right* keyed by ``right_column`` then probes
    with each left row's ``left_column`` value.  Null join keys never match
    (SQL semantics).
    """
    table: Dict[object, List[Row]] = {}
    for row in right:
        if stats is not None:
            stats.tuples_read += 1
        key = row[right_column]
        if key is None:
            continue
        table.setdefault(key, []).append(row)
    if stats is not None:
        stats.joins_executed += 1
    for joined in left:
        if stats is not None:
            stats.tuples_read += 1
        key = joined[left_alias][left_column]
        if key is None:
            continue
        for match in table.get(key, ()):
            if stats is not None:
                stats.tuples_emitted += 1
            yield joined.extend(right_alias, match)


def join_rows(
    base: Iterable[Row],
    base_alias: str,
    steps: Sequence[Tuple[str, str, Iterable[Row], str, str]],
    stats: Optional[JoinStats] = None,
) -> Iterator[JoinedRow]:
    """Left-deep join pipeline.

    *steps* is a sequence of
    ``(left_alias, left_column, right_rows, right_alias, right_column)``;
    each step joins the accumulated result against a new relation.
    """
    current: Iterable[JoinedRow] = (
        JoinedRow((base_alias,), (row,)) for row in base
    )
    for left_alias, left_column, right_rows, right_alias, right_column in steps:
        current = hash_join(
            current, left_alias, left_column, right_rows, right_alias, right_column,
            stats=stats,
        )
    return iter(current)
