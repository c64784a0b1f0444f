"""Storage backend protocol for the inverted keyword index.

The engine consumes one lookup surface — postings, distinct matching
tuples, DF/IDF/TF, per-tuple token membership — regardless of how the
index is laid out in memory or on disk.  :class:`StorageBackend` pins
that surface down and owns the pieces every implementation shares:

* the **append-only scan**: tables only grow, so both the initial build
  and PR 4's incremental ``refresh()`` are one walk over each text
  table's suffix past a per-table row-count watermark, feeding rows to
  the backend's ``_add_row`` hook and committing staged state at the
  end;
* the **IDF memo**: smoothed IDF is a pure function of (N, df) —
  ``ln((N+1)/(df+1)) + 1`` — computed lazily and invalidated whenever
  the document count moves, so every backend produces bit-identical
  floats without materialising a per-token table;
* **residency accounting** for the ``storage.resident_bytes`` gauge.

Canonical posting order is (table insertion order, ascending rowid) —
exactly the order a fresh scan produces.  The dict backend preserves
its historical append-on-refresh order; compact backends re-sort on
merge.  No consumer observes the difference (tuple-set construction
sorts, ``index_only`` ranks by ``(-score, tid)``, scoring reads
per-tuple maps) and the cross-backend parity suite holds all seven
search methods to byte-identical results.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.index.text import tokenize
from repro.obs.memory import deep_sizeof
from repro.relational.database import Database, TupleId

EMPTY_POSTINGS: Tuple["Posting", ...] = ()
EMPTY_TUPLES: Tuple[TupleId, ...] = ()
EMPTY_TF: Dict[TupleId, int] = {}


@dataclass(frozen=True)
class Posting:
    """One occurrence record: tuple, column it occurred in, and frequency."""

    tid: TupleId
    column: str
    frequency: int


class TokenView:
    """Decoded per-token lookup state cached by compact backends.

    Holds exactly what the hot loops read — the distinct matching-tuple
    tuple and the tid→tf map — so one decode amortises across the many
    probes a query makes for the same token.
    """

    __slots__ = ("matching", "tf")

    def __init__(self, matching: Tuple[TupleId, ...], tf: Dict[TupleId, int]):
        self.matching = matching
        self.tf = tf


class BoundedLRU:
    """Unlocked bounded LRU with hit / miss / eviction counters.

    The one body behind :class:`TokenViewCache` and
    :class:`~repro.storage.diskstore.PageCache`; callers serialise
    access themselves (a backend is read under its index's lock).
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TokenViewCache(BoundedLRU):
    """Bounded LRU of :class:`TokenView` keyed by token string.

    Query vocabularies are tiny and heavily repeated relative to the
    corpus vocabulary, so a small cache keeps the compact backends'
    decode cost off the steady-state path while bounding how much
    decoded (pointer-rich) state they re-materialise.
    """

    __slots__ = ()


class StorageBackend(ABC):
    """Abstract index substrate behind :class:`~repro.index.inverted.InvertedIndex`."""

    #: Registry key; subclasses override ("dict", "columnar", "disk").
    name = "abstract"

    def __init__(self) -> None:
        # Rows indexed so far per text table; tables are append-only, so
        # everything past this watermark is the delta refresh() patches.
        self._row_counts: Dict[str, int] = {}
        self.doc_count = 0
        self.refreshes = 0
        self.rows_patched = 0
        self._idf_memo: Dict[str, float] = {}
        self._resident_memo: Optional[Tuple[tuple, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle: shared append-only scan
    # ------------------------------------------------------------------
    def build(self, db: Database) -> None:
        """Index every row of every text table (initial full scan)."""
        self._scan(db, initial=True)

    def refresh(self, db: Database) -> int:
        """Delta-index rows inserted since the last build/refresh.

        The delta is exactly the suffix of each text table past the
        stored watermark; returns the number of rows indexed.
        """
        new_rows = self._scan(db, initial=False)
        if new_rows:
            self.rows_patched += new_rows
        self.refreshes += 1
        return new_rows

    def _scan(self, db: Database, initial: bool) -> int:
        self._begin(db, initial)
        staged = 0
        for table in db.tables.values():
            text_cols = table.schema.text_columns
            if not text_cols:
                continue
            start = 0 if initial else self._row_counts.get(table.name, 0)
            total = len(table)
            for rowid in range(start, total):
                self._add_row(
                    TupleId(table.name, rowid), table.row(rowid), text_cols
                )
                self.doc_count += 1
                staged += 1
            self._row_counts[table.name] = total
        if initial or staged:
            # N moved: every memoised IDF is stale.
            self._idf_memo.clear()
        self._commit(db, initial, staged)
        return staged

    @staticmethod
    def _column_token_counts(
        row, text_cols: Sequence[str]
    ) -> Iterator[Tuple[str, Dict[str, int]]]:
        """Yield (column, token→count) for each non-empty text column."""
        for column in text_cols:
            value = row[column]
            if value is None:
                continue
            counts: Dict[str, int] = {}
            for token in tokenize(str(value)):
                counts[token] = counts.get(token, 0) + 1
            if counts:
                yield column, counts

    # Backend hooks --------------------------------------------------------
    @abstractmethod
    def _begin(self, db: Database, initial: bool) -> None:
        """Prepare staging state before a scan (full or delta)."""

    @abstractmethod
    def _add_row(self, tid: TupleId, row, text_cols: Sequence[str]) -> None:
        """Stage one row's tokens."""

    @abstractmethod
    def _commit(self, db: Database, initial: bool, staged: int) -> None:
        """Fold staged state into the queryable substrate."""

    # ------------------------------------------------------------------
    # Lookup surface (tokens arrive already lowercased by the facade)
    # ------------------------------------------------------------------
    @abstractmethod
    def matching_view(self, token: str) -> Tuple[TupleId, ...]:
        """Distinct tuples containing *token* (immutable, zero-copy-ish)."""

    @abstractmethod
    def postings(self, token: str) -> Tuple[Posting, ...]:
        """Per-(tuple, column) occurrence records for *token*."""

    @abstractmethod
    def term_frequency(self, tid: TupleId, token: str) -> int:
        """Total occurrences of *token* across *tid*'s text columns."""

    @abstractmethod
    def document_frequency(self, token: str) -> int:
        """Number of distinct tuples containing *token*."""

    @abstractmethod
    def tokens_of(self, tid: TupleId) -> Set[str]:
        """Fresh set of every token *tid* contains."""

    @abstractmethod
    def contains_token(self, tid: TupleId, token: str) -> bool:
        """Membership probe without materialising :meth:`tokens_of`."""

    @abstractmethod
    def has_token(self, token: str) -> bool:
        """True if any tuple contains *token*."""

    @abstractmethod
    def vocabulary(self) -> List[str]:
        """Sorted list of all indexed tokens."""

    @abstractmethod
    def token_count(self) -> int:
        """Vocabulary size (cheaper than ``len(vocabulary())``)."""

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency (ln((N+1)/(df+1)) + 1).

        Unknown tokens fall out of the same formula with df=0, matching
        the historical dict-backend smoothing exactly.
        """
        cached = self._idf_memo.get(token)
        if cached is None:
            cached = (
                math.log(
                    (self.doc_count + 1) / (self.document_frequency(token) + 1)
                )
                + 1.0
            )
            self._idf_memo[token] = cached
        return cached

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _resident_key(self) -> tuple:
        """Extra memo-key components for backends with mutable caches."""
        return ()

    def resident_bytes(self, refresh: bool = False) -> int:
        """Deep resident footprint of this backend's unique state.

        Memoised on (doc_count, refreshes, backend-specific key) so the
        metrics gauge can poll it cheaply between mutations.
        """
        key = (self.doc_count, self.refreshes) + self._resident_key()
        memo = self._resident_memo
        if refresh or memo is None or memo[0] != key:
            memo = (key, deep_sizeof(self))
            self._resident_memo = memo
        return memo[1]

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "backend": self.name,
            "documents": self.doc_count,
            "tokens": self.token_count(),
            "refreshes": self.refreshes,
            "rows_patched": self.rows_patched,
            "resident_bytes": self.resident_bytes(),
        }
        out.update(self._extra_stats())
        return out

    def _extra_stats(self) -> Dict[str, object]:
        return {}

    def close(self) -> None:
        """Release external resources (files, mmaps); default no-op."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.token_count()} terms, "
            f"{self.doc_count} documents)"
        )
