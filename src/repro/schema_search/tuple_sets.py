"""Query tuple sets (DISCOVER, Hristidis & Papakonstantinou VLDB 02).

For query Q, each relation R is partitioned by the *exact* subset of
query keywords a tuple contains: ``R^K = { t in R : tokens(t) cap Q = K }``.
The exact-partition semantics guarantees that results produced by
different candidate networks are disjoint — the property DISCOVER's
duplicate-free enumeration relies on.  ``R^{}`` (the free tuple set) is
the whole relation, used for pure join nodes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.index.inverted import InvertedIndex
from repro.relational.database import Database, TupleId
from repro.relational.table import Row


@dataclass(frozen=True)
class TupleSetKey:
    """Identity of a tuple set: relation + exact keyword subset."""

    table: str
    keywords: FrozenSet[str]

    @property
    def is_free(self) -> bool:
        return not self.keywords

    def label(self) -> str:
        if self.is_free:
            return self.table
        return f"{self.table}^{{{','.join(sorted(self.keywords))}}}"


class TupleSets:
    """All non-empty tuple sets of a query over a database."""

    def __init__(self, db: Database, index: InvertedIndex, keywords: Sequence[str]):
        self.db = db
        self.index = index
        self.keywords: Tuple[str, ...] = tuple(k.lower() for k in keywords)
        self._sets: Dict[TupleSetKey, List[TupleId]] = {}
        # non_free_keys() memo.  Keys are only ever added, so it is
        # current iff its length matches — which also re-sorts after a
        # refresh() that created a key, even one racing a reader.
        self._sorted_keys: List[TupleSetKey] = []
        # Rowids matching >= 1 keyword, as one flag byte per classified
        # row of each table.  Rowids are dense 0-based insertion indexes,
        # so a bytearray replaces a Set[int] at a fraction of the memory,
        # answers "is this rowid free?" in O(1) whatever the table size,
        # and free-set sizing is a count.
        self._matched_by_table: Dict[str, bytearray] = {
            name: bytearray(len(table)) for name, table in db.tables.items()
        }
        # Rows classified so far per table (append-only data model);
        # refresh() patches membership for everything past this mark.
        self._row_counts: Dict[str, int] = {
            name: len(table) for name, table in db.tables.items()
        }
        self._build()

    def _build(self) -> None:
        query = set(self.keywords)
        # Tuples matching at least one keyword, with their exact subset.
        # The zero-copy posting view keeps this one pass over the
        # (already deduplicated) per-keyword tuple lists.
        by_tuple: Dict[TupleId, Set[str]] = {}
        for keyword in query:
            for tid in self.index.matching_tuples_view(keyword):
                by_tuple.setdefault(tid, set()).add(keyword)
        matched = self._matched_by_table
        for tid, subset in by_tuple.items():
            key = TupleSetKey(tid.table, frozenset(subset))
            self._sets.setdefault(key, []).append(tid)
            matched[tid.table][tid.rowid] = 1
        for tids in self._sets.values():
            tids.sort()

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> List[TupleSetKey]:
        """Patch membership for rows inserted since construction.

        Requires the inverted index to have been refreshed first (the
        classification reads ``index.contains_token``).  Each new row is
        placed into its exact-subset tuple set (order-preserving
        ``bisect.insort`` keeps parity with a from-scratch build); free
        sets need no patching because they are computed from table
        length minus the matched rowids recorded here.  Returns the
        tuple-set keys that newly came into existence — a non-empty
        return means the CN space may have changed; an empty one means
        every memoised CN list is still exact.
        """
        query = set(self.keywords)
        created: List[TupleSetKey] = []
        for name, table in self.db.tables.items():
            start = self._row_counts.get(name, 0)
            total = len(table)
            if total <= start:
                continue
            matched = self._matched_by_table[name]
            matched.extend(bytes(total - start))
            for rowid in range(start, total):
                tid = TupleId(name, rowid)
                subset = frozenset(
                    k for k in query if self.index.contains_token(tid, k)
                )
                if not subset:
                    continue
                key = TupleSetKey(name, subset)
                members = self._sets.get(key)
                if members is None:
                    members = self._sets[key] = []
                    created.append(key)
                bisect.insort(members, tid)
                matched[rowid] = 1
            self._row_counts[name] = total
        return created

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def non_free_keys(self) -> List[TupleSetKey]:
        """All non-empty, non-free tuple-set identities, sorted by label."""
        keys = self._sorted_keys
        if len(keys) != len(self._sets):
            keys = self._sorted_keys = sorted(self._sets, key=lambda k: k.label())
        return list(keys)

    def keys_for_table(self, table: str) -> List[TupleSetKey]:
        return [k for k in self.non_free_keys() if k.table == table]

    def tuple_ids(self, key: TupleSetKey) -> List[TupleId]:
        """Members of a tuple set.

        The free set ``R^{}`` holds the tuples of R containing *no*
        query keyword — the complement of all non-free sets.  This is
        what makes results of different CNs pairwise disjoint (DISCOVER's
        exact-partition guarantee).
        """
        if key.is_free:
            member = self.member_test(key)
            return [
                TupleId(key.table, rowid)
                for rowid in range(len(self.db.table(key.table)))
                if member(rowid)
            ]
        return list(self._sets.get(key, ()))

    def member_test(self, key: TupleSetKey) -> Callable[[int], bool]:
        """``rowid -> is it a member of *key*``, O(1) per rowid.

        What an index nested-loop join asks of the child's tuple set.  A
        free set is never materialised for it: a row is free iff it is
        not flagged matched (rows inserted since the last
        :meth:`refresh` are not classified yet and count as free, as in
        :meth:`tuple_ids`); the test reads the live flags, so it stays
        current across :meth:`refresh`.
        """
        if key.is_free:
            matched = self._matched_by_table[key.table]
            return lambda rowid: not (rowid < len(matched) and matched[rowid])
        return {tid.rowid for tid in self._sets.get(key, ())}.__contains__

    def rows(self, key: TupleSetKey) -> List[Row]:
        return [self.db.row(tid) for tid in self.tuple_ids(key)]

    def size(self, key: TupleSetKey) -> int:
        if key.is_free:
            matched = self._matched_by_table[key.table]
            return len(self.db.table(key.table)) - matched.count(1)
        return len(self._sets.get(key, ()))

    def covered_keywords(self) -> Set[str]:
        """Query keywords that match at least one tuple anywhere."""
        out: Set[str] = set()
        for key in self._sets:
            out |= key.keywords
        return out

    def __repr__(self) -> str:
        return (
            f"TupleSets(Q={list(self.keywords)}, "
            f"{len(self._sets)} non-free sets)"
        )
