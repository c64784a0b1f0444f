"""Compact columnar in-memory backend.

Where the dict backend spends a Python object per posting (a frozen
``Posting`` holding a ``TupleId`` holding two boxed fields), this
backend stores the whole index as a handful of flat buffers:

* **vocab**: token string → dense int token id (strings interned once);
* **postings**: one delta+varint byte blob per token id, laid out as
  table blocks — ``[n_blocks][table_idx, n_entries, (rowid_delta,
  col_id, freq)*]`` — in canonical (table, rowid) order, ~3–6 bytes per
  occurrence instead of ~200;
* **df**: an ``array('I')`` indexed by token id;
* **forward**: per table, one growing ``bytearray`` of varint-encoded
  sorted token-id runs plus an ``array('Q')`` of row offsets, backing
  ``tokens_of`` / ``contains_token`` without a dict of sets.

Decoded per-token views (matching tuple + tid→tf map) are materialised
on demand into a bounded LRU (:class:`TokenViewCache`), so the hot
scoring loops still see O(1) probes for the tokens a query actually
touches while cold vocabulary stays byte-packed.

refresh() decodes only the blobs of tokens the new rows contain,
merges the staged entries per table block (append-only rowids keep
blocks sorted by construction) and re-encodes — the same suffix-scan
contract as the dict backend.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.database import Database, TupleId
from repro.storage.base import (
    EMPTY_TUPLES,
    Posting,
    StorageBackend,
    TokenView,
    TokenViewCache,
)
from repro.storage.varint import decode_run, decode_uint, encode_run, encode_uint

#: Default capacity of the decoded-token LRU.
DEFAULT_HOT_TOKENS = 256

Entry = Tuple[int, int, int, int]  # (table_idx, rowid, col_id, freq)


def encode_token_entries(
    per_table: Sequence[Tuple[int, Sequence[Tuple[int, int, int]]]]
) -> bytes:
    """Encode ``[(table_idx, [(rowid, col_id, freq), ...]), ...]``.

    Table blocks must be in ascending ``table_idx`` order and each
    block's rowids non-decreasing (equal rowids = several columns of
    one row); rowids are delta-coded within the block.
    """
    out = bytearray()
    encode_uint(len(per_table), out)
    for table_idx, entries in per_table:
        encode_uint(table_idx, out)
        encode_uint(len(entries), out)
        prev = 0
        for rowid, col_id, freq in entries:
            encode_uint(rowid - prev, out)
            encode_uint(col_id, out)
            encode_uint(freq, out)
            prev = rowid
    return bytes(out)


def decode_token_entries(buf, pos: int = 0) -> Tuple[List[Entry], int]:
    """Inverse of :func:`encode_token_entries`; flat entry list."""
    entries: List[Entry] = []
    n_blocks, pos = decode_uint(buf, pos)
    for _ in range(n_blocks):
        table_idx, pos = decode_uint(buf, pos)
        n_entries, pos = decode_uint(buf, pos)
        prev = 0
        for _ in range(n_entries):
            delta, pos = decode_uint(buf, pos)
            col_id, pos = decode_uint(buf, pos)
            freq, pos = decode_uint(buf, pos)
            prev += delta
            entries.append((table_idx, prev, col_id, freq))
    return entries, pos


def distinct_count(entries: Sequence[Entry]) -> int:
    """Distinct (table, rowid) pairs in an entry list (df for a token)."""
    seen = 0
    last: Optional[Tuple[int, int]] = None
    for table_idx, rowid, _col, _freq in entries:
        key = (table_idx, rowid)
        if key != last:
            seen += 1
            last = key
    return seen


def entries_to_view(entries: Sequence[Entry], table_names: Sequence[str]) -> TokenView:
    """Decoded ``(table_idx, rowid, col, freq)`` entries as a TokenView
    (row-major order kept, term frequency summed over a row's columns)."""
    matching: List[TupleId] = []
    tf: Dict[TupleId, int] = {}
    last: Optional[Tuple[int, int]] = None
    tid: Optional[TupleId] = None
    for table_idx, rowid, _col, freq in entries:
        key = (table_idx, rowid)
        if key != last:
            tid = TupleId(table_names[table_idx], rowid)
            matching.append(tid)
            tf[tid] = freq
            last = key
        else:
            tf[tid] = tf[tid] + freq
    return TokenView(tuple(matching), tf)


class ColumnarBackend(StorageBackend):
    """Interned-id, delta+varint coded in-memory substrate."""

    name = "columnar"

    def __init__(self, hot_tokens: int = DEFAULT_HOT_TOKENS) -> None:
        super().__init__()
        # Vocab / column / table interning.
        self._token_ids: Dict[str, int] = {}
        self._tokens: List[str] = []
        self._col_ids: Dict[str, int] = {}
        self._cols: List[str] = []
        self._table_ids: Dict[str, int] = {}
        self._table_names: List[str] = []
        # Token id -> encoded posting blob / df.
        self._blobs: List[bytes] = []
        self._df = array("I")
        # Forward index: per table, packed token-id runs + row offsets.
        # _fwd_base is the rowid of the first run in the buffer — 0 for
        # a full build, the watermark when this backend is a disk-delta
        # overlay that only ever sees a table's suffix.
        self._fwd_buf: List[bytearray] = []
        self._fwd_off: List[array] = []
        self._fwd_base: List[Optional[int]] = []
        self._hot = TokenViewCache(hot_tokens)
        # Scan staging (token id -> new entries in scan order).
        self._stage: Dict[int, List[Entry]] = {}

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _token_id(self, token: str) -> int:
        tid = self._token_ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._token_ids[token] = tid
            self._tokens.append(token)
        return tid

    def _col_id(self, column: str) -> int:
        cid = self._col_ids.get(column)
        if cid is None:
            cid = len(self._cols)
            self._col_ids[column] = cid
            self._cols.append(column)
        return cid

    def _table_id(self, table: str) -> int:
        tix = self._table_ids.get(table)
        if tix is None:
            tix = len(self._table_names)
            self._table_ids[table] = tix
            self._table_names.append(table)
            self._fwd_buf.append(bytearray())
            self._fwd_off.append(array("Q", [0]))
            self._fwd_base.append(None)
        return tix

    # ------------------------------------------------------------------
    # Scan hooks
    # ------------------------------------------------------------------
    def _begin(self, db: Database, initial: bool) -> None:
        self._stage = {}
        # Register text tables in database order so canonical block
        # order matches a fresh sequential scan.
        for table in db.tables.values():
            if table.schema.text_columns:
                self._table_id(table.name)

    def _add_row(self, tid: TupleId, row, text_cols: Sequence[str]) -> None:
        table_idx = self._table_ids[tid.table]
        rowid = tid.rowid
        stage = self._stage
        row_tokens: Set[int] = set()
        for column, counts in self._column_token_counts(row, text_cols):
            col_id = self._col_id(column)
            for token, freq in counts.items():
                token_id = self._token_id(token)
                stage.setdefault(token_id, []).append(
                    (table_idx, rowid, col_id, freq)
                )
                row_tokens.add(token_id)
        # Forward run — rows arrive in rowid order with no gaps, so the
        # run at position (rowid - base) is this row's.
        if self._fwd_base[table_idx] is None:
            self._fwd_base[table_idx] = rowid
        buf = self._fwd_buf[table_idx]
        buf += encode_run(sorted(row_tokens))
        self._fwd_off[table_idx].append(len(buf))

    def _commit(self, db: Database, initial: bool, staged: int) -> None:
        if not initial and not staged:
            return
        blobs = self._blobs
        df = self._df
        # New token ids were assigned past the old blob count.
        while len(blobs) < len(self._tokens):
            blobs.append(b"")
            df.append(0)
        for token_id, new_entries in self._stage.items():
            old_blob = blobs[token_id]
            if old_blob:
                entries, _ = decode_token_entries(old_blob)
                entries.extend(new_entries)
                # Append-only rowids keep per-table runs sorted, but a
                # refresh may interleave tables: re-group by table.
                entries.sort(key=lambda e: (e[0], e[1], e[2]))
            else:
                entries = new_entries
            blobs[token_id] = self._encode_entries(entries)
            df[token_id] = distinct_count(entries)
        self._stage = {}
        self._hot.clear()

    @staticmethod
    def _encode_entries(entries: Sequence[Entry]) -> bytes:
        per_table: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        for table_idx, rowid, col_id, freq in entries:
            if not per_table or per_table[-1][0] != table_idx:
                per_table.append((table_idx, []))
            per_table[-1][1].append((rowid, col_id, freq))
        return encode_token_entries(per_table)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _view(self, token: str) -> Optional[TokenView]:
        view = self._hot.get(token)
        if view is not None:
            return view
        token_id = self._token_ids.get(token)
        if token_id is None:
            return None
        entries, _ = decode_token_entries(self._blobs[token_id])
        view = entries_to_view(entries, self._table_names)
        self._hot.put(token, view)
        return view

    def _row_token_ids(self, tid: TupleId) -> Optional[List[int]]:
        table_idx = self._table_ids.get(tid.table)
        if table_idx is None:
            return None
        base = self._fwd_base[table_idx]
        if base is None:
            return None
        offsets = self._fwd_off[table_idx]
        pos = tid.rowid - base
        if pos < 0 or pos >= len(offsets) - 1:
            return None
        run, _ = decode_run(self._fwd_buf[table_idx], offsets[pos])
        return run

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def matching_view(self, token: str) -> Tuple[TupleId, ...]:
        view = self._view(token)
        return view.matching if view is not None else EMPTY_TUPLES

    def postings(self, token: str) -> Tuple[Posting, ...]:
        token_id = self._token_ids.get(token)
        if token_id is None:
            return ()
        entries, _ = decode_token_entries(self._blobs[token_id])
        names = self._table_names
        cols = self._cols
        return tuple(
            Posting(TupleId(names[table_idx], rowid), cols[col_id], freq)
            for table_idx, rowid, col_id, freq in entries
        )

    def term_frequency(self, tid: TupleId, token: str) -> int:
        view = self._view(token)
        if view is None:
            return 0
        return view.tf.get(tid, 0)

    def document_frequency(self, token: str) -> int:
        token_id = self._token_ids.get(token)
        return self._df[token_id] if token_id is not None else 0

    def tokens_of(self, tid: TupleId) -> Set[str]:
        run = self._row_token_ids(tid)
        if not run:
            return set()
        tokens = self._tokens
        return {tokens[token_id] for token_id in run}

    def contains_token(self, tid: TupleId, token: str) -> bool:
        token_id = self._token_ids.get(token)
        if token_id is None:
            return False
        run = self._row_token_ids(tid)
        return bool(run) and token_id in run

    def has_token(self, token: str) -> bool:
        return token in self._token_ids

    def vocabulary(self) -> List[str]:
        return sorted(self._token_ids)

    def token_count(self) -> int:
        return len(self._token_ids)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _resident_key(self) -> tuple:
        return (len(self._hot), self._hot.evictions)

    def _extra_stats(self) -> Dict[str, object]:
        postings_bytes = sum(len(b) for b in self._blobs)
        forward_bytes = sum(len(b) for b in self._fwd_buf)
        return {
            "postings_bytes": postings_bytes,
            "forward_bytes": forward_bytes,
            "hot_cache": self._hot.stats(),
        }

    # ------------------------------------------------------------------
    # Export for the disk backend's segment writer
    # ------------------------------------------------------------------
    def export_arrays(self):
        """Internal arrays for :mod:`repro.storage.diskstore` staging."""
        return {
            "tokens": self._tokens,
            "cols": self._cols,
            "tables": self._table_names,
            "blobs": self._blobs,
            "df": self._df,
            "fwd_buf": self._fwd_buf,
            "fwd_off": self._fwd_off,
            "row_counts": dict(self._row_counts),
            "doc_count": self.doc_count,
        }
