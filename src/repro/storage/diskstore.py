"""Disk-backed inverted index: mmap segment files + LRU page cache.

The segment file is written once from a staged
:class:`~repro.storage.columnar.ColumnarBackend` and read forever via
``mmap``:

```
magic | page 0 .. page N (zlib)       <- postings blobs + forward runs
      | footer (zlib JSON)            <- vocab, df, directories, stamp
      | footer_off u64 | footer_len u64 | magic
```

Variable-length items (one token's posting blob, one row's forward
run) are packed into fixed-size raw pages by :class:`_PageWriter`; an
item never spans pages (oversized items get a page of their own), so
the directory addresses any item as ``(page, offset, length)``.  Pages
decompress lazily into a bounded LRU (:class:`PageCache`) — a cold
open reads only the footer and touches zero pages, and steady-state
RSS is capped by the cache regardless of corpus size (EMBANKS'
disk-based argument, PAPERS.md).

The segment is immutable; PR 4's incremental ``refresh()`` lands new
rows in an in-memory delta :class:`ColumnarBackend` whose watermarks
start at the segment's row counts.  Base and delta row sets are
disjoint, so df adds, tf sums, and matching lists merge by canonical
(table, rowid) order.  A cold open against a database that has grown
past the segment's stamp simply replays the suffix through the delta —
which is exactly the PR 8 ``/admin/swap`` rebuild-from-live-db path.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.database import Database, TupleId
from repro.storage.base import (
    EMPTY_TUPLES,
    BoundedLRU,
    Posting,
    StorageBackend,
    TokenView,
    TokenViewCache,
)
from repro.storage.columnar import (
    ColumnarBackend,
    decode_token_entries,
    entries_to_view,
)
from repro.storage.varint import decode_run

MAGIC = b"RKWSEG01"
SEGMENT_FORMAT = 1
DEFAULT_PAGE_SIZE = 4096
DEFAULT_CACHE_PAGES = 64
_TRAILER = struct.Struct("<QQ8s")


class SegmentFormatError(RuntimeError):
    """Raised when a segment file is missing, truncated, or mismatched."""


class _PageWriter:
    """Packs variable-length items into fixed-size raw pages."""

    def __init__(self, page_size: int):
        self.page_size = max(256, int(page_size))
        self.pages: List[bytearray] = [bytearray()]

    def add(self, item: bytes) -> Tuple[int, int, int]:
        """Append *item*; returns its (page_idx, offset, length)."""
        current = self.pages[-1]
        if current and len(current) + len(item) > self.page_size:
            current = bytearray()
            self.pages.append(current)
        offset = len(current)
        current += item
        return len(self.pages) - 1, offset, len(item)


class PageCache(BoundedLRU):
    """Bounded LRU of decompressed pages with lazy page-in accounting."""

    __slots__ = ("_ever",)

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._ever: Set[int] = set()

    def put(self, page_idx: int, raw: bytes) -> None:
        self._ever.add(page_idx)
        super().put(page_idx, raw)

    @property
    def pages_ever_loaded(self) -> int:
        return len(self._ever)

    def stats(self) -> Dict[str, int]:
        return {
            "resident_pages": len(self),
            "capacity_pages": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pages_ever_loaded": len(self._ever),
        }


def _db_stamp(db: Database) -> Dict[str, object]:
    """Schema+rowcount fingerprint a segment was built against."""
    return {
        "format": SEGMENT_FORMAT,
        "text_schema": {
            t.name: list(t.schema.text_columns)
            for t in db.tables.values()
            if t.schema.text_columns
        },
        "row_counts": {
            t.name: len(t)
            for t in db.tables.values()
            if t.schema.text_columns
        },
    }


def write_segment(
    path: str,
    arrays: Dict[str, object],
    stamp: Dict[str, object],
    page_size: int = DEFAULT_PAGE_SIZE,
) -> None:
    """Serialise a staged columnar index (``export_arrays``) to *path*.

    Atomic: written to ``path + '.tmp'``, fsynced, then renamed.
    """
    writer = _PageWriter(page_size)
    token_dir = [writer.add(blob) for blob in arrays["blobs"]]
    fwd_dirs: List[List[Tuple[int, int, int]]] = []
    for buf, offsets in zip(arrays["fwd_buf"], arrays["fwd_off"]):
        view = memoryview(bytes(buf))
        rows = []
        for rowid in range(len(offsets) - 1):
            rows.append(writer.add(bytes(view[offsets[rowid]:offsets[rowid + 1]])))
        fwd_dirs.append(rows)

    page_table: List[Tuple[int, int, int]] = []  # (file_off, comp_len, raw_len)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        offset = len(MAGIC)
        for raw in writer.pages:
            comp = zlib.compress(bytes(raw), 6)
            fh.write(comp)
            page_table.append((offset, len(comp), len(raw)))
            offset += len(comp)
        footer = {
            "format": SEGMENT_FORMAT,
            "stamp": stamp,
            "tokens": arrays["tokens"],
            "cols": arrays["cols"],
            "tables": arrays["tables"],
            "df": list(arrays["df"]),
            "token_dir": token_dir,
            "fwd_dirs": fwd_dirs,
            "page_table": page_table,
            "page_size": page_size,
            "doc_count": arrays["doc_count"],
            "row_counts": arrays["row_counts"],
        }
        footer_bytes = zlib.compress(
            json.dumps(footer, separators=(",", ":")).encode("utf-8"), 6
        )
        footer_off = offset
        fh.write(footer_bytes)
        fh.write(_TRAILER.pack(footer_off, len(footer_bytes), MAGIC))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # Durability of the rename itself.
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_footer(path: str) -> Dict[str, object]:
    """Load and validate a segment's footer (no pages touched)."""
    size = os.path.getsize(path)
    if size < len(MAGIC) + _TRAILER.size:
        raise SegmentFormatError(f"segment too small: {path}")
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise SegmentFormatError(f"bad segment magic: {path}")
        fh.seek(size - _TRAILER.size)
        footer_off, footer_len, trailer_magic = _TRAILER.unpack(
            fh.read(_TRAILER.size)
        )
        if trailer_magic != MAGIC:
            raise SegmentFormatError(f"bad segment trailer: {path}")
        if footer_off + footer_len > size - _TRAILER.size:
            raise SegmentFormatError(f"footer out of bounds: {path}")
        fh.seek(footer_off)
        footer = json.loads(zlib.decompress(fh.read(footer_len)))
    if footer.get("format") != SEGMENT_FORMAT:
        raise SegmentFormatError(
            f"unsupported segment format {footer.get('format')!r}: {path}"
        )
    return footer


class DiskBackend(StorageBackend):
    """mmap segment + page cache + in-memory delta overlay."""

    name = "disk"

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        hot_tokens: int = 128,
        reuse: bool = True,
    ) -> None:
        super().__init__()
        self._ephemeral = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-seg-", suffix=".rkws")
            os.close(fd)
            os.unlink(path)  # build() recreates it atomically
        self.path = path
        self.page_size = page_size
        self.reuse = reuse
        self.reused_segment = False
        self._cache = PageCache(cache_pages)
        self._hot = TokenViewCache(hot_tokens)
        # Segment state (populated by _open).
        self._mm = None
        self._file = None
        self._page_table: List[Tuple[int, int, int]] = []
        self._tokens: List[str] = []
        self._token_ids: Dict[str, int] = {}
        self._cols: List[str] = []
        self._tables: List[str] = []
        self._table_rank: Dict[str, int] = {}
        self._df: array = array("I")
        self._token_dir: List[Tuple[int, int, int]] = []
        self._fwd_dirs: List[List[Tuple[int, int, int]]] = []
        self._base_row_counts: Dict[str, int] = {}
        self._base_doc_count = 0
        self._delta = ColumnarBackend(hot_tokens=hot_tokens)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def build(self, db: Database) -> None:
        """Open a matching segment cold, or stage+write one, then map it."""
        footer = None
        if self.reuse and os.path.exists(self.path):
            try:
                footer = read_footer(self.path)
                if not self._stamp_compatible(footer["stamp"], db):
                    footer = None
            except (SegmentFormatError, OSError, ValueError, KeyError):
                footer = None
        if footer is None:
            staging = ColumnarBackend(hot_tokens=1)
            staging.build(db)
            write_segment(
                self.path, staging.export_arrays(), _db_stamp(db), self.page_size
            )
            footer = read_footer(self.path)
        else:
            self.reused_segment = True
        self._open(footer)
        # Rows inserted after the segment was stamped replay as delta —
        # the rebuild-from-live-db path stays incremental.
        grew = any(
            len(t) > self._base_row_counts.get(t.name, 0)
            for t in db.tables.values()
            if t.schema.text_columns
        )
        if grew:
            new_rows = self._delta.refresh(db)
            self.doc_count += new_rows
            self._row_counts = dict(self._delta._row_counts)

    def _stamp_compatible(self, stamp: Dict[str, object], db: Database) -> bool:
        current = _db_stamp(db)
        if stamp.get("text_schema") != current["text_schema"]:
            return False
        old_counts = stamp.get("row_counts", {})
        # The database may only have grown (append-only model).
        for name, count in current["row_counts"].items():
            if old_counts.get(name, 0) > count:
                return False
        return set(old_counts) <= set(current["row_counts"])

    def _open(self, footer: Dict[str, object]) -> None:
        import mmap

        self._unmap()
        self._file = open(self.path, "rb")
        self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        self._page_table = [tuple(p) for p in footer["page_table"]]
        self._tokens = list(footer["tokens"])
        self._token_ids = {t: i for i, t in enumerate(self._tokens)}
        self._cols = list(footer["cols"])
        self._tables = list(footer["tables"])
        self._table_rank = {t: i for i, t in enumerate(self._tables)}
        self._df = array("I", footer["df"])
        self._token_dir = [tuple(d) for d in footer["token_dir"]]
        self._fwd_dirs = [[tuple(r) for r in rows] for rows in footer["fwd_dirs"]]
        self._base_row_counts = dict(footer["row_counts"])
        self._base_doc_count = int(footer["doc_count"])
        self.doc_count = self._base_doc_count
        self._row_counts = dict(self._base_row_counts)
        self._idf_memo.clear()
        self._hot.clear()
        # Delta overlay starts empty at the segment's watermarks, with
        # table ids pre-registered in segment order so canonical merge
        # order matches.
        self._delta = ColumnarBackend(hot_tokens=self._hot.capacity)
        for name in self._tables:
            self._delta._table_id(name)
        self._delta._row_counts = dict(self._base_row_counts)

    def refresh(self, db: Database) -> int:
        new_rows = self._delta.refresh(db)
        if new_rows:
            self.doc_count += new_rows
            self.rows_patched += new_rows
            self._row_counts = dict(self._delta._row_counts)
            self._idf_memo.clear()
            self._hot.clear()
        self.refreshes += 1
        return new_rows

    # Base-class scan hooks never run (build/refresh are overridden).
    def _begin(self, db: Database, initial: bool) -> None:  # pragma: no cover
        raise AssertionError("DiskBackend does not use the shared scan")

    def _add_row(self, tid, row, text_cols) -> None:  # pragma: no cover
        raise AssertionError("DiskBackend does not use the shared scan")

    def _commit(self, db, initial, staged) -> None:  # pragma: no cover
        raise AssertionError("DiskBackend does not use the shared scan")

    def _unmap(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def close(self) -> None:
        self._unmap()
        if self._ephemeral and os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover
                pass

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    def _page(self, page_idx: int) -> bytes:
        page = self._cache.get(page_idx)
        if page is None:
            file_off, comp_len, _raw_len = self._page_table[page_idx]
            page = zlib.decompress(self._mm[file_off:file_off + comp_len])
            self._cache.put(page_idx, page)
        return page

    def _item(self, loc: Tuple[int, int, int]) -> bytes:
        page_idx, offset, length = loc
        return self._page(page_idx)[offset:offset + length]

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    def _view(self, token: str) -> Optional[TokenView]:
        view = self._hot.get(token)
        if view is not None:
            return view
        token_id = self._token_ids.get(token)
        base_view = None
        if token_id is not None:
            blob = self._item(self._token_dir[token_id])
            if blob:
                entries, _ = decode_token_entries(blob)
                base_view = entries_to_view(entries, self._tables)
        delta_view = (
            self._delta._view(token) if self._delta.has_token(token) else None
        )
        if base_view is None and delta_view is None:
            return None
        if delta_view is None:
            merged = base_view
        elif base_view is None:
            merged = delta_view
        else:
            rank = self._table_rank
            matching = sorted(
                base_view.matching + delta_view.matching,
                key=lambda t: (rank.get(t.table, len(rank)), t.rowid),
            )
            tf = dict(base_view.tf)
            tf.update(delta_view.tf)  # disjoint row sets
            merged = TokenView(tuple(matching), tf)
        self._hot.put(token, merged)
        return merged

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def matching_view(self, token: str) -> Tuple[TupleId, ...]:
        view = self._view(token)
        return view.matching if view is not None else EMPTY_TUPLES

    def postings(self, token: str) -> Tuple[Posting, ...]:
        out: List[Posting] = []
        token_id = self._token_ids.get(token)
        if token_id is not None:
            blob = self._item(self._token_dir[token_id])
            if blob:
                entries, _ = decode_token_entries(blob)
                names = self._tables
                cols = self._cols
                out.extend(
                    Posting(TupleId(names[ti], rowid), cols[ci], freq)
                    for ti, rowid, ci, freq in entries
                )
        out.extend(self._delta.postings(token))
        return tuple(out)

    def term_frequency(self, tid: TupleId, token: str) -> int:
        view = self._view(token)
        if view is None:
            return 0
        return view.tf.get(tid, 0)

    def document_frequency(self, token: str) -> int:
        token_id = self._token_ids.get(token)
        base = self._df[token_id] if token_id is not None else 0
        return base + self._delta.document_frequency(token)

    def _in_delta(self, tid: TupleId) -> bool:
        return tid.rowid >= self._base_row_counts.get(tid.table, 0)

    def tokens_of(self, tid: TupleId) -> Set[str]:
        if self._in_delta(tid):
            return self._delta.tokens_of(tid)
        rank = self._table_rank.get(tid.table)
        if rank is None:
            return set()
        rows = self._fwd_dirs[rank]
        if tid.rowid < 0 or tid.rowid >= len(rows):
            return set()
        run, _ = decode_run(self._item(rows[tid.rowid]))
        tokens = self._tokens
        return {tokens[token_id] for token_id in run}

    def contains_token(self, tid: TupleId, token: str) -> bool:
        if self._in_delta(tid):
            return self._delta.contains_token(tid, token)
        token_id = self._token_ids.get(token)
        if token_id is None:
            return False
        rank = self._table_rank.get(tid.table)
        if rank is None:
            return False
        rows = self._fwd_dirs[rank]
        if tid.rowid < 0 or tid.rowid >= len(rows):
            return False
        run, _ = decode_run(self._item(rows[tid.rowid]))
        return token_id in run

    def has_token(self, token: str) -> bool:
        return token in self._token_ids or self._delta.has_token(token)

    def vocabulary(self) -> List[str]:
        if self._delta.token_count():
            return sorted(set(self._tokens) | set(self._delta._token_ids))
        return sorted(self._tokens)

    def token_count(self) -> int:
        if self._delta.token_count():
            return len(set(self._tokens) | set(self._delta._token_ids))
        return len(self._tokens)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _resident_key(self) -> tuple:
        return (
            self._delta.doc_count,
            len(self._hot),
            self._cache.misses,
            self._cache.evictions,
        )

    def _extra_stats(self) -> Dict[str, object]:
        try:
            segment_bytes = os.path.getsize(self.path)
        except OSError:
            segment_bytes = 0
        return {
            "segment_path": self.path,
            "segment_bytes": segment_bytes,
            "segment_pages": len(self._page_table),
            "reused_segment": self.reused_segment,
            "page_cache": self._cache.stats(),
            "hot_cache": self._hot.stats(),
            "delta_documents": self._delta.doc_count,
        }
