"""Row and table storage.

Rows are stored as tuples in insertion order; a :class:`Row` is a cheap
view object carrying the owning table's schema so callers can use mapping
access (``row["title"]``).  Tables maintain hash indexes on the primary
key and on every foreign-key column, which is what makes candidate-network
evaluation (equi-joins along FKs) efficient.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.relational.schema import SchemaError, TableSchema


class Row:
    """An immutable view of one stored tuple.

    ``rowid`` is the table-local, 0-based insertion index; it is stable
    for the lifetime of the table (deletion is not supported — the data
    graph and all indexes hold rowids).
    """

    __slots__ = ("table", "rowid", "_values")

    def __init__(self, table: "Table", rowid: int, values: Tuple[object, ...]):
        self.table = table
        self.rowid = rowid
        self._values = values

    @property
    def values(self) -> Tuple[object, ...]:
        return self._values

    def __getitem__(self, column: str) -> object:
        return self._values[self.table.column_index(column)]

    def get(self, column: str, default: object = None) -> object:
        try:
            return self[column]
        except SchemaError:
            return default

    def as_dict(self) -> Dict[str, object]:
        return dict(zip(self.table.schema.column_names, self._values))

    @property
    def key(self) -> object:
        """Primary-key value of this row."""
        return self._values[self.table.pk_index]

    def text(self, columns: Optional[Tuple[str, ...]] = None) -> str:
        """Concatenated text content of *columns* (default: text columns)."""
        cols = columns if columns is not None else self.table.schema.text_columns
        parts = []
        for col in cols:
            value = self[col]
            if value is not None:
                parts.append(str(value))
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Row)
            and other.table is self.table
            and other.rowid == self.rowid
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.rowid))

    def __repr__(self) -> str:
        return f"Row({self.table.name}:{self.rowid} {self.as_dict()!r})"


class Table:
    """Column-validated tuple storage with PK/FK hash indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: Monotonic mutation counter; bumped on every insert so derived
        #: structures (indexes, caches) can detect staleness cheaply.
        self.version = 0
        self._rows: List[Tuple[object, ...]] = []
        self._col_index: Dict[str, int] = {
            c.name: i for i, c in enumerate(schema.columns)
        }
        self.pk_index = self._col_index[schema.primary_key]
        self._pk_map: Dict[object, int] = {}
        # column name -> value -> list of rowids (built for FK columns).
        self._indexes: Dict[str, Dict[object, List[int]]] = {
            fk.column: {} for fk in schema.foreign_keys
        }

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def column_index(self, column: str) -> int:
        try:
            return self._col_index[column]
        except KeyError:
            raise SchemaError(f"no column {column!r} in table {self.name!r}") from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def prepare(
        self,
        values: Mapping[str, object],
        pending_pks: Optional[Set[object]] = None,
    ) -> Tuple[object, ...]:
        """Validate an insert without applying it; return the row tuple.

        Runs every check :meth:`insert` performs (unknown columns, column
        types/nullability, primary-key presence and uniqueness) but never
        mutates the table, so callers that need all-or-nothing semantics
        — atomic batches, write-ahead logging — can validate first and
        apply only records guaranteed to succeed.  *pending_pks* extends
        the duplicate-key check with keys earlier in the same batch.
        """
        unknown = set(values) - set(self.schema.column_names)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)} for {self.name!r}")
        record = []
        for col in self.schema.columns:
            record.append(col.validate(values.get(col.name)))
        pk_value = record[self.pk_index]
        if pk_value is None:
            raise SchemaError(f"primary key {self.schema.primary_key!r} must be set")
        if pk_value in self._pk_map or (
            pending_pks is not None and pk_value in pending_pks
        ):
            raise SchemaError(
                f"duplicate primary key {pk_value!r} in table {self.name!r}"
            )
        return tuple(record)

    def apply(self, record: Tuple[object, ...]) -> int:
        """Store a :meth:`prepare`-validated row tuple; returns its rowid.

        Infallible for prepared records: all validation happened in
        :meth:`prepare`, so the version bump and index updates here
        never leave the table half-mutated.
        """
        rowid = len(self._rows)
        self._rows.append(record)
        self._pk_map[record[self.pk_index]] = rowid
        for column, index in self._indexes.items():
            value = record[self._col_index[column]]
            index.setdefault(value, []).append(rowid)
        self.version += 1
        return rowid

    def insert(self, **values: object) -> int:
        """Insert a row given by keyword arguments; returns its rowid."""
        return self.apply(self.prepare(values))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def row(self, rowid: int) -> Row:
        return Row(self, rowid, self._rows[rowid])

    def rows(self) -> Iterator[Row]:
        for rowid, values in enumerate(self._rows):
            yield Row(self, rowid, values)

    def values(self, rowid: int) -> Tuple[object, ...]:
        """The stored tuple of *rowid*, without a :class:`Row` around it."""
        return self._rows[rowid]

    def rowids(self, column: str, value: object) -> Sequence[int]:
        """Rowids with ``row[column] == value``, ascending; do not mutate.

        An index probe on a foreign-key column (the index bucket
        itself) or the primary key (zero or one rowid); any other
        column is a scan.
        """
        index = self._indexes.get(column)
        if index is not None:
            return index.get(value, ())
        if column == self.schema.primary_key:
            rowid = self._pk_map.get(value)
            return () if rowid is None else (rowid,)
        idx = self.column_index(column)
        return [
            rowid for rowid, values in enumerate(self._rows) if values[idx] == value
        ]

    def by_key(self, pk_value: object) -> Optional[Row]:
        rowids = self.rowids(self.schema.primary_key, pk_value)
        return self.row(rowids[0]) if rowids else None

    def lookup(self, column: str, value: object) -> List[Row]:
        """All rows with ``row[column] == value`` (uses indexes if present)."""
        return [self.row(rowid) for rowid in self.rowids(column, value)]

    def distinct(self, column: str) -> List[object]:
        """Distinct non-null values of *column*, in first-seen order."""
        idx = self.column_index(column)
        seen = dict.fromkeys(
            values[idx] for values in self._rows if values[idx] is not None
        )
        return list(seen)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"
