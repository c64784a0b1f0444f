"""Crash recovery: newest valid snapshot + WAL suffix replay.

``recover`` rebuilds a :class:`Database` from a durability directory
(as laid out by :class:`~repro.durability.manager.DurableEngine`):

1. load the newest snapshot whose checksum validates (corrupt or
   uncommitted snapshots fall back to the next-older one);
2. open the WAL — torn-tail truncation happens here — and replay every
   record with ``lsn`` past the snapshot's covered LSN through
   :meth:`Database.insert` / :meth:`Database.insert_many`, stopping
   cleanly at the first bad-CRC record;
3. with no snapshot at all, bootstrap an empty database from the WAL's
   leading ``bootstrap`` record (which carries the schema).

``recover_engine`` additionally wraps the recovered database in a
serving engine (:func:`~repro.core.factory.build_engine`) whose
inverted index is built over the *snapshot* state and then patched
forward through the incremental ``refresh()`` path (PR 4) while the
WAL suffix replays — so recovery
exercises exactly the maintenance machinery live inserts use, and the
recovered engine's search results are byte-identical to an engine that
never crashed.

Every recovery emits a span tree (``recover -> snapshot_load ->
wal_open -> replay -> refresh``) and the ``recovery.replayed`` /
``recovery.ms`` metrics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace, Tracer, span as trace_span
from repro.relational.database import Database
from repro.durability.snapshot import SnapshotStore, schema_from_dict
from repro.durability.wal import WriteAheadLog

#: Sub-directories of a durability root.
WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"


class RecoveryError(RuntimeError):
    """The durability directory holds no recoverable state."""


@dataclass
class RecoveryResult:
    """What a recovery pass found and rebuilt."""

    db: Database
    last_lsn: int
    snapshot_lsn: int
    replayed: int
    #: Why replay stopped early (``None`` = clean end of log).
    stopped: Optional[str] = None
    #: Bytes dropped by torn-tail truncation on WAL open.
    truncated_bytes: int = 0
    elapsed_ms: float = 0.0
    trace: Optional[Trace] = None

    def summary(self) -> str:
        parts = [
            f"snapshot lsn={self.snapshot_lsn}",
            f"replayed {self.replayed} records",
            f"last lsn={self.last_lsn}",
        ]
        if self.truncated_bytes:
            parts.append(f"truncated {self.truncated_bytes} torn bytes")
        if self.stopped:
            parts.append(f"replay stopped: {self.stopped}")
        return ", ".join(parts)


def _apply_record(db: Database, record: Dict[str, object]) -> int:
    """Apply one WAL record to *db*; returns rows applied."""
    op = record.get("op")
    if op == "bootstrap":
        return 0
    if op == "insert":
        db.insert(str(record["table"]), check_fk=False, **record["values"])
        return 1
    if op == "insert_many":
        applied = db.insert_many(
            str(record["table"]), record["records"], check_fk=False
        )
        return len(applied)
    raise RecoveryError(f"unknown WAL op {op!r}")


def recover(
    root_dir: str,
    metrics: Optional[MetricsRegistry] = None,
    trace: bool = True,
    wal: Optional[WriteAheadLog] = None,
    snapshots: Optional[SnapshotStore] = None,
    refresh_hook=None,
) -> RecoveryResult:
    """Rebuild the database state persisted under *root_dir*.

    *refresh_hook*, when given, is called (inside the ``refresh`` span)
    after the WAL suffix is applied — :func:`recover_engine` passes the
    engine's incremental-maintenance entry point here.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    tracer = Tracer() if trace else None
    start_s = time.perf_counter()
    with trace_span(tracer, "recover") as root:
        with trace_span(tracer, "snapshot_load") as ssp:
            store = snapshots or SnapshotStore(
                os.path.join(root_dir, SNAPSHOT_SUBDIR), metrics=metrics
            )
            info = store.latest()
            if info is not None:
                db, snapshot_lsn = store.load(info)
                ssp.tag("lsn", snapshot_lsn).add("rows", db.size())
            else:
                db, snapshot_lsn = None, 0
                ssp.tag("lsn", None)
        with trace_span(tracer, "wal_open") as wsp:
            log = wal or WriteAheadLog(
                os.path.join(root_dir, WAL_SUBDIR), metrics=metrics
            )
            wsp.add("truncated_bytes", log.truncated_bytes)
            if log.truncated_reason:
                wsp.tag("truncated", log.truncated_reason)
        replayed = 0
        last_lsn = snapshot_lsn
        with trace_span(tracer, "replay") as rsp:
            for entry in log.replay(after_lsn=snapshot_lsn):
                record = entry.record
                if db is None:
                    if record.get("op") != "bootstrap":
                        raise RecoveryError(
                            "no snapshot and the WAL does not start with a "
                            "bootstrap record"
                        )
                    db = Database(schema_from_dict(record["schema"]))
                else:
                    replayed += _apply_record(db, record)
                last_lsn = entry.lsn
            stopped = getattr(log, "replay_stopped", None)
            rsp.add("records", replayed)
            if stopped:
                rsp.tag("stopped", stopped)
        if db is None:
            if wal is None:
                log.close()
            raise RecoveryError(f"nothing to recover under {root_dir!r}")
        with trace_span(tracer, "refresh") as fsp:
            if refresh_hook is not None:
                refresh_hook()
                fsp.tag("applied", True)
        root.add("replayed", replayed)
    if wal is None:
        log.close()
    elapsed_ms = (time.perf_counter() - start_s) * 1000.0
    metrics.inc("recovery.replayed", replayed)
    metrics.observe("recovery.ms", elapsed_ms)
    return RecoveryResult(
        db=db,
        last_lsn=last_lsn,
        snapshot_lsn=snapshot_lsn,
        replayed=replayed,
        stopped=stopped,
        truncated_bytes=log.truncated_bytes,
        elapsed_ms=elapsed_ms,
        trace=tracer.finish() if tracer is not None else None,
    )


def recover_engine(
    root_dir: str,
    metrics: Optional[MetricsRegistry] = None,
    trace: bool = True,
    engine_builder=None,
    **engine_kwargs,
):
    """Recover and serve: returns ``(engine, RecoveryResult)``.

    The engine's inverted index is built over the snapshot state before
    the WAL suffix applies, so the replayed rows flow through the same
    incremental ``refresh()`` path live inserts use (a sharded engine
    routes them to their shards there).  Search results afterwards are
    byte-identical to a fresh engine over the same logical contents
    (the PR 4 refresh-parity guarantee).  *engine_builder* — a callable
    taking the database — constructs the engine; a live server passes
    its own generation builder so the recovered engine keeps the shape
    (shards, partitioner, backend) of the one it replaces.  Without
    one, *engine_kwargs* go to :func:`~repro.core.factory.build_engine`.
    """
    from repro.core.factory import build_engine

    metrics = metrics if metrics is not None else MetricsRegistry()
    if engine_builder is None:
        engine_builder = lambda db: build_engine(
            db, metrics=metrics, **engine_kwargs
        )
    store = SnapshotStore(
        os.path.join(root_dir, SNAPSHOT_SUBDIR), metrics=metrics
    )
    log = WriteAheadLog(os.path.join(root_dir, WAL_SUBDIR), metrics=metrics)
    engine = None
    info = store.latest()
    if info is not None:
        db, _ = store.load(info)
        engine = engine_builder(db)
        engine.warm()  # index the snapshot state, pre-replay

    # With a snapshot, replay mutates the database the engine already
    # indexes (not a second copy) and ends in the engine's refresh.
    result = recover(
        root_dir,
        metrics=metrics,
        trace=trace,
        wal=log,
        snapshots=store if engine is None else _FixedDbStore(store, engine.db),
        refresh_hook=None if engine is None else engine.refresh,
    )
    log.close()
    if engine is None:
        engine = engine_builder(result.db)
        engine.warm()
    return engine, result


class _FixedDbStore:
    """Snapshot-store facade that serves one pre-loaded database.

    :func:`recover_engine` loads the snapshot *before* constructing the
    engine (the index must see the pre-replay state); this adapter lets
    :func:`recover` replay onto that same object instead of loading a
    second copy.
    """

    def __init__(self, store: SnapshotStore, db: Database):
        self._store = store
        self._db = db

    def latest(self):
        return self._store.latest()

    def load(self, info):
        return self._db, info.lsn
