"""Inverted keyword index over relational tuples.

Maps every token appearing in a text column to the posting list of
tuples containing it, together with per-(tuple, column) term frequencies.
This is the index behind tuple-set construction in DISCOVER-style search
(slide 28: the "query tuple sets" :math:`R^Q`) and behind TF·IDF scoring
(slides 144, 158).

Since PR 9 the index is a thin facade over a pluggable
:class:`~repro.storage.base.StorageBackend` (see :mod:`repro.storage`):
the classic precomputed-dict layout (``"dict"``, the default), a
compact columnar substrate (``"columnar"``) and a disk-backed mmap
segment with an LRU page cache (``"disk"``).  All backends expose the
same statistics the scorers consult — document frequency, smoothed
IDF, per-(tuple, token) term frequency, deduplicated tuple posting
lists — and are held to byte-identical search results by the
cross-backend parity suite.  The facade normalises tokens (lowercase)
and owns the generic multi-token intersection; everything else is one
delegation hop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.relational.database import Database, TupleId
from repro.storage import create_backend
from repro.storage.base import Posting, StorageBackend  # re-export: Posting

__all__ = ["InvertedIndex", "Posting"]


class InvertedIndex:
    """Token -> postings over the text columns of a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        backend: str = "dict",
        backend_options: Optional[Dict[str, object]] = None,
    ):
        self.db = db
        self.backend: StorageBackend = create_backend(backend, backend_options)
        self.backend.build(db)

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def refreshes(self) -> int:
        return self.backend.refreshes

    @property
    def rows_patched(self) -> int:
        return self.backend.rows_patched

    @property
    def watermark(self) -> Dict[str, int]:
        """Rows indexed so far per text table (read-only; replaced, not
        mutated, when it moves — after the rows' tokens are queryable)."""
        return self.backend.watermark

    def refresh(self) -> int:
        """Delta-index rows inserted since the last build/refresh.

        Tables are append-only (no update/delete — see
        :class:`~repro.relational.table.Row`), so the delta is exactly
        the suffix of each text table past the backend's stored
        watermark.  The patched index is content-identical to a fresh
        build — posting order may differ for tokens the new rows
        contain, which no consumer observes (tuple-set construction
        sorts, scoring reads per-tuple maps).  Returns the number of
        rows indexed.
        """
        return self.backend.refresh(self.db)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def postings(self, token: str) -> Sequence[Posting]:
        """Immutable view of the posting list for *token*."""
        return self.backend.postings(token.lower())

    def matching_tuples(self, token: str) -> List[TupleId]:
        """Distinct tuples containing *token*, in posting order."""
        return list(self.backend.matching_view(token.lower()))

    def matching_tuples_view(self, token: str) -> Tuple[TupleId, ...]:
        """Zero-copy variant of :meth:`matching_tuples` for hot paths."""
        return self.backend.matching_view(token.lower())

    def matching_tuples_in(self, token: str, table: str) -> List[TupleId]:
        return [t for t in self.matching_tuples_view(token) if t.table == table]

    def tuples_matching_all(self, tokens: Iterable[str]) -> List[TupleId]:
        """Tuples whose text contains every token (single-tuple AND)."""
        sets: List[Set[TupleId]] = []
        for token in tokens:
            sets.append(set(self.matching_tuples_view(token)))
        if not sets:
            return []
        common = set.intersection(*sets)
        return sorted(common)

    def tokens_of(self, tid: TupleId) -> Set[str]:
        return self.backend.tokens_of(tid)

    def contains_token(self, tid: TupleId, token: str) -> bool:
        return self.backend.contains_token(tid, token.lower())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> List[str]:
        return self.backend.vocabulary()

    @property
    def document_count(self) -> int:
        """Number of tuples with at least one text column (N for IDF)."""
        return self.backend.doc_count

    def document_frequency(self, token: str) -> int:
        return self.backend.document_frequency(token.lower())

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency (ln((N+1)/(df+1)) + 1)."""
        return self.backend.idf(token.lower())

    def term_frequency(self, tid: TupleId, token: str) -> int:
        return self.backend.term_frequency(tid, token.lower())

    def __contains__(self, token: str) -> bool:
        return self.backend.has_token(token.lower())

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Deep resident footprint of the backing substrate."""
        return self.backend.resident_bytes()

    def storage_stats(self) -> Dict[str, object]:
        return self.backend.stats()

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:
        return (
            f"InvertedIndex[{self.backend.name}]"
            f"({self.backend.token_count()} terms, "
            f"{self.backend.doc_count} documents)"
        )
