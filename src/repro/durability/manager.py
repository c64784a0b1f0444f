"""`DurableEngine`: log-before-apply mutations over a serving engine.

Wraps a serving engine (single or sharded — anything
:func:`~repro.core.factory.build_engine` returns) and a durability
root directory (``<root>/wal`` + ``<root>/snapshots``)::

    engine = DurableEngine(build_engine(db), "/var/lib/repro")
    engine.insert("author", aid=7, name="ada lovelace")   # durable
    engine.snapshot()                                     # checkpoint
    ...
    engine, result = DurableEngine.recover("/var/lib/repro")

Mutations follow the WAL discipline:

1. **validate** — :meth:`Database.check_insert` runs every column, PK
   and FK check *without* applying, so the log never records an insert
   that cannot replay (replay runs with FK checks off);
2. **log** — the mutation is appended (and, per the fsync policy,
   made durable) to the WAL;
3. **apply** — the row is stored and the serving engine's
   ``refresh()`` runs: the substrates are patched in place, and a
   sharded engine first gives the new row a home shard (an entry in
   the one ownership map; nothing is copied per shard).

A fresh directory over a non-empty database bootstraps itself: the
schema is logged as the WAL's first record and an initial snapshot
captures the pre-existing rows, so recovery never depends on state
that predates the log.

``snapshot()`` checkpoints at the current last LSN and prunes WAL
segments the snapshot fully covers; ``fsck()`` runs the
:mod:`repro.durability.verify` audit over the wrapped engine.

Mutations and snapshots are serialized by one re-entrant lock.
Without it a snapshot racing an insert can capture the new *row* while
stamping a covered LSN *below* the insert's WAL record — recovery then
replays the record on top of the snapshotted row and dies on a
duplicate primary key.  The lock makes every snapshot a consistent
cut: rows and covered LSN always agree.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.factory import DEFAULT_PARTITIONER
from repro.durability.recovery import (
    RecoveryResult,
    SNAPSHOT_SUBDIR,
    WAL_SUBDIR,
    recover_engine,
)
from repro.durability.snapshot import SnapshotInfo, SnapshotStore, schema_to_dict
from repro.durability.verify import FsckReport, fsck
from repro.durability.wal import WriteAheadLog
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import TupleId


class DurableEngine:
    """Write-ahead-logged mutations + snapshots for a serving engine."""

    def __init__(
        self,
        engine,
        root_dir: str,
        fsync: str = "always",
        fsync_interval: int = 64,
        segment_max_bytes: int = 1 << 20,
        retain_snapshots: int = 3,
        bootstrap_snapshot: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.engine = engine
        self.root_dir = root_dir
        #: Serializes mutations against snapshots (see module docstring).
        #: Re-entrant so bootstrap (``__init__`` -> ``snapshot``) and
        #: callers holding it for compound operations still work.
        self.mutation_lock = threading.RLock()
        self.metrics = (
            metrics
            if metrics is not None
            else engine.metrics
        )
        fresh = not os.path.isdir(os.path.join(root_dir, WAL_SUBDIR))
        self.wal = WriteAheadLog(
            os.path.join(root_dir, WAL_SUBDIR),
            fsync=fsync,
            fsync_interval=fsync_interval,
            segment_max_bytes=segment_max_bytes,
            metrics=self.metrics,
        )
        # Compact-substrate engines get the packed row codec so snapshot
        # size tracks the columnar footprint instead of re-JSONifying
        # every row; load() auto-detects, so mixed histories restore.
        packed = engine.backend_name in ("columnar", "disk")
        self.snapshots = SnapshotStore(
            os.path.join(root_dir, SNAPSHOT_SUBDIR),
            retain=retain_snapshots,
            metrics=self.metrics,
            row_codec="packed" if packed else "json",
        )
        if fresh and self.wal.last_lsn == 0:
            # First open: anchor the log with the schema so recovery
            # with no snapshot still knows the world's shape, then
            # checkpoint any rows that predate the log.
            self.wal.append(
                {"op": "bootstrap", "schema": schema_to_dict(self.db.schema)}
            )
            if bootstrap_snapshot and self.db.size():
                self.snapshot()

    @property
    def db(self):
        """The wrapped engine's database — what mutations land in."""
        return self.engine.db

    def rebind(self, engine) -> None:
        """Log for *engine* from now on (the server's generation swap).

        The WAL and snapshot store stay; mutations land in *engine*'s
        database and refresh *engine*, not the retired generation.
        """
        with self.mutation_lock:
            self.engine = engine

    # ------------------------------------------------------------------
    # Durable mutation path (validate -> log -> apply -> refresh)
    # ------------------------------------------------------------------
    def insert(self, table: str, **values: object) -> TupleId:
        """Durably insert one row; acknowledged means recoverable."""
        with self.mutation_lock:
            self.db.check_insert(table, values)
            self.wal.append({"op": "insert", "table": table, "values": values})
            tid = self.db.insert(table, check_fk=False, **values)
            self.engine.refresh()
            return tid

    def insert_many(
        self, table: str, records: Iterable[Dict[str, object]]
    ) -> List[TupleId]:
        """Durable atomic batch: one WAL record, one fsync, one refresh."""
        batch = [dict(record) for record in records]
        with self.mutation_lock:
            # Atomic pre-validation mirrors Database.insert_many, including
            # FK references to rows earlier in the same batch.
            tbl = self.db.table(table)
            pending: set = set()
            for values in batch:
                record = tbl.prepare(values, pending_pks=pending)
                self.db._check_fks(table, values, pending_self_pks=pending)
                pending.add(record[tbl.pk_index])
            self.wal.append(
                {"op": "insert_many", "table": table, "records": batch}
            )
            tids = self.db.insert_many(table, batch, check_fk=False)
            self.engine.refresh()
            return tids

    # ------------------------------------------------------------------
    # Serving passthrough
    # ------------------------------------------------------------------
    def search(self, *args, **kwargs):
        return self.engine.search(*args, **kwargs)

    def search_many(self, *args, **kwargs):
        return self.engine.search_many(*args, **kwargs)

    def cached_answer(self, *args, **kwargs):
        return self.engine.cached_answer(*args, **kwargs)

    # ------------------------------------------------------------------
    # Checkpointing / verification
    # ------------------------------------------------------------------
    def snapshot(self) -> SnapshotInfo:
        """Checkpoint the database at the current WAL position.

        The WAL is fsynced first so the snapshot's covered LSN is
        durable, then segments the snapshot fully covers are pruned.
        Holds the mutation lock for the whole cut so the row iteration
        and the covered LSN describe the same instant.
        """
        with self.mutation_lock:
            self.wal.sync()
            info = self.snapshots.write(self.db, self.wal.last_lsn)
            self.wal.prune(info.lsn)
            return info

    def fsck(self) -> FsckReport:
        """Audit derived state (index, caches, FKs, shard ownership)."""
        return fsck(self.engine)

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        root_dir: str,
        fsync: str = "always",
        retain_snapshots: int = 3,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = True,
        shards: int = 1,
        partitioner: str = DEFAULT_PARTITIONER,
        **engine_kwargs,
    ) -> Tuple["DurableEngine", RecoveryResult]:
        """Rebuild engine + durability layer after a crash.

        Loads the newest valid snapshot, replays the WAL suffix through
        the incremental refresh path and re-opens the log for new
        appends (truncating any torn tail).  ``shards`` /
        ``partitioner`` / *engine_kwargs* go to
        :func:`~repro.core.factory.build_engine`.
        """
        metrics = metrics if metrics is not None else MetricsRegistry()
        engine, result = recover_engine(
            root_dir,
            metrics=metrics,
            trace=trace,
            shards=shards,
            partitioner=partitioner,
            **engine_kwargs,
        )
        durable = cls(
            engine,
            root_dir,
            fsync=fsync,
            retain_snapshots=retain_snapshots,
            bootstrap_snapshot=False,
            metrics=metrics,
        )
        return durable, result
