"""Durability tests: WAL, snapshots, recovery, fsck, crash chaos.

Covers the WAL record format and torn-tail repair, atomic snapshot
commit/retention/fallback, snapshot+replay recovery (including the
bootstrap-only path), the DurableEngine front end (single-node and
sharded), failpoint-injected crashes at every durability stage with the
byte-identity acceptance gate, fsck corruption detection, atomic
``insert_many``, opt-in retry jitter and the CLI surface.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import tiny_bibliographic_db
from repro.durability import (
    DurableEngine,
    RecoveryError,
    SnapshotStore,
    WriteAheadLog,
    fsck,
    recover,
    recover_engine,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import format_trace
from repro.relational.database import Database, TupleId
from repro.relational.schema import (
    Column,
    ForeignKey,
    Schema,
    SchemaError,
    TableSchema,
)
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.failpoints import FAILPOINTS
from repro.resilience.retry import RetryPolicy
from repro.sharding import ShardedSearchEngine


def signature(results):
    """Canonical comparison form for the byte-identity gate."""
    return [(r.score, r.network, tuple(str(t) for t in r.tuple_ids())) for r in results]


QUERIES = ["john xml", "widom xml", "john sigmod", "levy logic"]


def assert_engines_identical(got, want, queries=QUERIES, k=5, methods=("schema",)):
    for method in methods:
        for query in queries:
            assert signature(got.search(query, k=k, method=method)) == signature(
                want.search(query, k=k, method=method)
            ), f"divergence on {query!r} via {method}"


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        records = [{"op": "insert", "table": "t", "values": {"i": i}} for i in range(5)]
        lsns = [wal.append(r) for r in records]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        replayed = list(wal.replay())
        assert [e.lsn for e in replayed] == lsns
        assert [e.record for e in replayed] == records
        assert wal.replay_stopped is None
        wal.close()

    def test_reopen_continues_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"op": "a"})
        wal.close()
        wal = WriteAheadLog(str(tmp_path))
        assert wal.truncated_bytes == 0
        assert wal.append({"op": "b"}) == 2
        assert [e.record["op"] for e in wal.replay()] == ["a", "b"]
        wal.close()

    def test_replay_after_lsn_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(4):
            wal.append({"i": i})
        assert [e.lsn for e in wal.replay(after_lsn=2)] == [3, 4]
        wal.close()

    def test_torn_tail_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"op": "keep"})
        wal.close()
        (seg,) = [p for p in tmp_path.iterdir() if p.suffix == ".seg"]
        with open(seg, "ab") as handle:
            handle.write(b"\x07\x07\x07")  # a torn partial header
        wal = WriteAheadLog(str(tmp_path))
        assert wal.truncated_bytes == 3
        assert wal.truncated_reason == "short header"
        assert [e.record["op"] for e in wal.replay()] == ["keep"]
        # The repaired log accepts appends at the next LSN.
        assert wal.append({"op": "next"}) == 2
        wal.close()

    def test_replay_stops_at_corrupt_record(self, tmp_path):
        # Two records fit the first segment, the third rotates — so the
        # corruption lands in a *non-tail* segment, beyond the reach of
        # open-time tail truncation, and replay must stop mid-stream.
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=50)
        for i in range(3):
            wal.append({"i": i})
        wal.close()
        first_seg = sorted(p for p in tmp_path.iterdir() if p.suffix == ".seg")[0]
        data = bytearray(first_seg.read_bytes())
        record_len = 16 + len(json.dumps({"i": 0}, separators=(",", ":")))
        data[record_len + 16 + 2] ^= 0xFF  # a payload byte of record 2
        first_seg.write_bytes(bytes(data))
        wal = WriteAheadLog(str(tmp_path))
        assert wal.truncated_bytes == 0  # the tail segment itself is clean
        replayed = list(wal.replay())
        assert [e.record["i"] for e in replayed] == [0]
        assert "crc mismatch" in wal.replay_stopped
        wal.close()

    def test_segment_rotation_and_prune(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=64)
        for i in range(10):
            wal.append({"i": i})
        stats = wal.stats()
        assert stats["segments"] > 1
        assert [e.record["i"] for e in wal.replay()] == list(range(10))
        removed = wal.prune(through_lsn=wal.last_lsn)
        assert removed == stats["segments"] - 1
        # The active tail survives pruning and keeps accepting appends.
        assert wal.stats()["segments"] == 1
        assert wal.append({"i": 10}) == 11
        wal.close()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync="interval", fsync_interval=0)

    def test_append_many_single_batch(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync="interval", fsync_interval=100)
        lsns = wal.append_many([{"i": i} for i in range(5)])
        assert lsns == [1, 2, 3, 4, 5]
        wal.close()
        wal = WriteAheadLog(str(tmp_path))
        assert len(list(wal.replay())) == 5
        wal.close()


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_roundtrip_preserves_rowids(self, tmp_path):
        db = tiny_bibliographic_db()
        store = SnapshotStore(str(tmp_path))
        info = store.write(db, lsn=7)
        assert info.lsn == 7 and info.rows == db.size()
        loaded, lsn = store.load(info)
        assert lsn == 7
        for name, table in db.tables.items():
            got = [list(row.values) for row in loaded.table(name).rows()]
            want = [list(row.values) for row in table.rows()]
            assert got == want, f"table {name} rows diverge"

    def test_latest_skips_corrupt_snapshot(self, tmp_path):
        db = tiny_bibliographic_db()
        metrics = MetricsRegistry()
        store = SnapshotStore(str(tmp_path), metrics=metrics)
        store.write(db, lsn=1)
        newest = store.write(db, lsn=2)
        data = bytearray(open(newest.data_path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(newest.data_path, "wb") as handle:
            handle.write(bytes(data))
        info = store.latest()
        assert info is not None and info.lsn == 1
        assert metrics.counter("snapshot.invalid_skipped").value == 1

    def test_retention_keeps_newest(self, tmp_path):
        db = tiny_bibliographic_db()
        store = SnapshotStore(str(tmp_path), retain=2)
        for lsn in (1, 2, 3):
            store.write(db, lsn=lsn)
        committed = store.list()
        assert [info.lsn for info in committed] == [2, 3]
        names = set(os.listdir(tmp_path))
        assert "snapshot-0000000000000001.json" not in names
        assert "manifest-0000000000000001.json" not in names

    def test_uncommitted_snapshot_is_invisible(self, tmp_path):
        db = tiny_bibliographic_db()
        store = SnapshotStore(str(tmp_path))
        FAILPOINTS.activate("snapshot.commit", exc=RuntimeError("kill"), times=1)
        with pytest.raises(RuntimeError):
            store.write(db, lsn=5)
        assert store.latest() is None
        # A later snapshot commits fine and cleans the leftover tmp.
        info = store.write(db, lsn=6)
        assert store.latest().lsn == 6
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))
        assert store.validate(info)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_snapshot_plus_replay_parity(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        for i in range(3):
            durable.insert("author", aid=500 + i, name=f"walter author{i}", affiliation=None)
        durable.close()

        engine, result = recover_engine(root)
        assert result.replayed == 3
        assert result.snapshot_lsn >= 1
        assert result.stopped is None

        reference_db = tiny_bibliographic_db()
        for i in range(3):
            reference_db.insert("author", aid=500 + i, name=f"walter author{i}", affiliation=None)
        assert_engines_identical(engine, KeywordSearchEngine(reference_db))
        assert fsck(engine).ok

    def test_bootstrap_only_path(self, tmp_path):
        # Empty database: no bootstrap snapshot is taken, so recovery
        # must rebuild purely from the WAL's leading schema record.
        root = str(tmp_path)
        empty = Database(tiny_bibliographic_db().schema)
        durable = DurableEngine(KeywordSearchEngine(empty), root)
        durable.insert("author", aid=1, name="ada lovelace", affiliation="analytical society")
        durable.insert("conference", cid=1, name="sigmod", year=1983, location=None)
        durable.close()
        assert not SnapshotStore(os.path.join(root, "snapshots")).list()

        engine, result = recover_engine(root)
        assert result.snapshot_lsn == 0
        assert result.replayed == 2
        assert signature(engine.search("ada lovelace", k=5))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(str(tmp_path))

    def test_metrics_and_trace(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        durable.insert("author", aid=600, name="trace author", affiliation=None)
        durable.close()
        metrics = MetricsRegistry()
        result = recover(root, metrics=metrics, trace=True)
        assert metrics.counter("recovery.replayed").value == 1
        assert result.trace is not None
        rendered = format_trace(result.trace)
        for stage in ("recover", "snapshot_load", "wal_open", "replay", "refresh"):
            assert stage in rendered


# ----------------------------------------------------------------------
# DurableEngine
# ----------------------------------------------------------------------
class TestDurableEngine:
    def test_acknowledged_insert_survives_reopen(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        tid = durable.insert("author", aid=700, name="durable author", affiliation=None)
        assert signature(durable.search("durable author", k=5))
        durable.close()

        recovered, result = DurableEngine.recover(root)
        assert result.replayed == 1
        assert signature(recovered.search("durable author", k=5))
        assert str(tid) in {
            t for r in recovered.search("durable author", k=5) for t in map(str, r.tuple_ids())
        }
        recovered.close()

    def test_insert_many_durable_single_record(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        before = durable.wal.last_lsn
        tids = durable.insert_many(
            "author",
            [
                {"aid": 710, "name": "batch author one", "affiliation": None},
                {"aid": 711, "name": "batch author two", "affiliation": None},
            ],
        )
        assert len(tids) == 2
        assert durable.wal.last_lsn == before + 1  # one WAL record for the batch
        durable.close()
        recovered, result = DurableEngine.recover(root)
        assert result.replayed == 2  # rows applied, not records read
        assert signature(recovered.search("batch author", k=5))
        recovered.close()

    def test_rejected_insert_not_logged(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        before = durable.wal.last_lsn
        with pytest.raises(SchemaError):
            durable.insert("write", wid=900, aid=424242, pid=0)  # dangling FK
        assert durable.wal.last_lsn == before
        assert durable.fsck().ok
        durable.close()

    def test_snapshot_prunes_wal(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(
            KeywordSearchEngine(tiny_bibliographic_db()),
            root,
            segment_max_bytes=128,
        )
        for i in range(10):
            durable.insert("author", aid=720 + i, name=f"prune author{i}", affiliation=None)
        assert durable.wal.stats()["segments"] > 1
        durable.snapshot()
        assert durable.wal.stats()["segments"] == 1
        durable.close()
        recovered, result = DurableEngine.recover(root)
        assert result.replayed == 0  # the snapshot covers everything
        assert signature(recovered.search("prune author3", k=5))
        recovered.close()

    def test_sharded_durable_insert_and_recovery(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(
            ShardedSearchEngine(tiny_bibliographic_db(), n_shards=2), root
        )
        durable.insert("author", aid=730, name="sharded durable author", affiliation=None)
        assert signature(durable.search("sharded durable author", k=5))
        durable.close()

        recovered, result = DurableEngine.recover(root, shards=2)
        assert result.replayed == 1
        reference_db = tiny_bibliographic_db()
        reference_db.insert("author", aid=730, name="sharded durable author", affiliation=None)
        reference = ShardedSearchEngine(reference_db, n_shards=2)
        assert_engines_identical(recovered, reference)
        assert recovered.fsck().ok
        recovered.close()


# ----------------------------------------------------------------------
# Crash chaos: failpoint-injected kills at every durability stage
# ----------------------------------------------------------------------
class TestCrashChaos:
    def _reference(self, extra_rows):
        db = tiny_bibliographic_db()
        for values in extra_rows:
            db.insert("author", **values)
        return KeywordSearchEngine(db)

    def test_kill_mid_append_loses_only_unacknowledged(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        safe = {"aid": 800, "name": "survivor author", "affiliation": None}
        durable.insert("author", **safe)
        FAILPOINTS.activate("wal.append", exc=RuntimeError("kill -9"), times=1)
        with pytest.raises(RuntimeError):
            durable.insert("author", aid=801, name="torn author", affiliation=None)
        durable.close()

        recovered, result = DurableEngine.recover(root)
        # The half-written record is a torn tail: truncated, not replayed.
        assert result.truncated_bytes > 0
        assert not signature(recovered.search("torn author", k=5))
        assert_engines_identical(recovered, self._reference([safe]))
        assert recovered.fsck().ok
        recovered.close()

    def test_kill_mid_fsync_keeps_flushed_record(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        FAILPOINTS.activate("wal.fsync", exc=RuntimeError("kill -9"), times=1)
        undecided = {"aid": 810, "name": "undecided author", "affiliation": None}
        with pytest.raises(RuntimeError):
            durable.insert("author", **undecided)
        durable.close()

        recovered, result = DurableEngine.recover(root)
        # The record was fully written and flushed before the kill, so
        # this crash resolves to "durable": it replays intact.
        assert result.truncated_bytes == 0
        assert result.replayed == 1
        assert signature(recovered.search("undecided author", k=5))
        assert_engines_identical(recovered, self._reference([undecided]))
        assert recovered.fsck().ok
        recovered.close()

    def test_kill_mid_snapshot_commit_falls_back(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        rows = [
            {"aid": 820 + i, "name": f"checkpoint author{i}", "affiliation": None}
            for i in range(4)
        ]
        for values in rows[:2]:
            durable.insert("author", **values)
        good = durable.snapshot()
        for values in rows[2:]:
            durable.insert("author", **values)
        FAILPOINTS.activate("snapshot.commit", exc=RuntimeError("kill -9"), times=1)
        with pytest.raises(RuntimeError):
            durable.snapshot()
        durable.close()

        recovered, result = DurableEngine.recover(root)
        # The uncommitted snapshot is invisible; recovery uses the last
        # committed one and replays the longer WAL suffix instead.
        assert result.snapshot_lsn == good.lsn
        assert result.replayed == 2
        assert_engines_identical(recovered, self._reference(rows))
        assert recovered.fsck().ok
        recovered.close()

    def test_post_recovery_parity_across_all_methods(self, tmp_path):
        root = str(tmp_path)
        durable = DurableEngine(KeywordSearchEngine(tiny_bibliographic_db()), root)
        rows = [
            {"aid": 830, "name": "grace hopper", "affiliation": "yale"},
            {"aid": 831, "name": "barbara liskov", "affiliation": "mit"},
        ]
        for values in rows:
            durable.insert("author", **values)
        FAILPOINTS.activate("wal.append", exc=RuntimeError("kill -9"), times=1)
        with pytest.raises(RuntimeError):
            durable.insert("author", aid=832, name="lost author", affiliation=None)
        durable.close()

        recovered, _ = DurableEngine.recover(root)
        reference = self._reference(rows)
        assert_engines_identical(
            recovered,
            reference,
            queries=["grace hopper", "widom xml", "john sigmod"],
            methods=KNOWN_METHODS,
        )
        report = recovered.fsck()
        assert report.ok, report.problems
        recovered.close()


# ----------------------------------------------------------------------
# fsck corruption detection
# ----------------------------------------------------------------------
class TestFsck:
    def test_clean_engine_passes(self):
        engine = KeywordSearchEngine(tiny_bibliographic_db())
        engine.search("widom xml", k=3)
        report = fsck(engine)
        assert report.ok
        assert report.checked["postings"] > 0
        assert report.checked["fk_rows"] == engine.db.size()
        assert "fsck ok" in report.summary()

    def test_stale_index_detected(self):
        db = tiny_bibliographic_db()
        engine = KeywordSearchEngine(db)
        index = engine.index  # built now, then left stale
        db.insert("author", aid=900, name="unindexed author", affiliation=None)
        report = fsck(db=db, index=index)
        assert not report.ok
        assert any("missing from its posting list" in p for p in report.problems)
        assert any("document_count" in p for p in report.problems)

    def test_dangling_fk_detected(self):
        db = tiny_bibliographic_db()
        db.insert("write", wid=901, aid=424242, pid=0, check_fk=False)
        report = fsck(db=db)
        assert not report.ok
        assert any(p.startswith("fk: ") for p in report.problems)

    def test_mis_homed_tuple_detected(self):
        """Homes are audited against a fresh partitioner run, not
        against the engine's own memo of them."""
        db = tiny_bibliographic_db()
        with ShardedSearchEngine(db, n_shards=2) as engine:
            report = fsck(engine)
            assert report.ok
            assert report.checked["shard_tuples"] == db.size()
            tid = next(iter(db.all_tuple_ids()))
            right = engine.shards.partitioner.assign_one(db, tid, {})
            wrong = 1 - right
            engine.shards.homes[tid] = wrong
            assert fsck(engine).problems == [
                f"shards: {tid} assigned home {right} but owned by {wrong}"
            ]
            del engine.shards.homes[tid]
            phantom = TupleId(tid.table, len(db.table(tid.table)))
            engine.shards.homes[phantom] = 0
            problems = fsck(engine).problems
            assert len(problems) == 2
            assert any("owned by None" in p for p in problems)
            assert any("not in the source database" in p for p in problems)


# ----------------------------------------------------------------------
# Satellite: atomic insert_many
# ----------------------------------------------------------------------
class TestInsertManyAtomicity:
    def test_mid_batch_failure_applies_nothing(self):
        db = tiny_bibliographic_db()
        before_rows = len(db.table("author"))
        before_version = db.data_version
        with pytest.raises(SchemaError):
            db.insert_many(
                "author",
                [
                    {"aid": 910, "name": "valid author", "affiliation": None},
                    {"aid": 911, "name": 12345, "affiliation": None},  # bad type
                ],
            )
        assert len(db.table("author")) == before_rows
        assert db.data_version == before_version

    def test_duplicate_pk_within_batch_applies_nothing(self):
        db = tiny_bibliographic_db()
        before_rows = len(db.table("author"))
        with pytest.raises(SchemaError):
            db.insert_many(
                "author",
                [
                    {"aid": 920, "name": "first twin", "affiliation": None},
                    {"aid": 920, "name": "second twin", "affiliation": None},
                ],
            )
        assert len(db.table("author")) == before_rows

    def test_self_fk_within_batch(self):
        schema = Schema(
            [
                TableSchema(
                    "employee",
                    (
                        Column("eid", "int"),
                        Column("name", "str", text=True),
                        Column("boss", "int", nullable=True),
                    ),
                    "eid",
                    (ForeignKey("boss", "employee", "eid"),),
                )
            ]
        )
        db = Database(schema)
        tids = db.insert_many(
            "employee",
            [
                {"eid": 1, "name": "root manager", "boss": None},
                {"eid": 2, "name": "line worker", "boss": 1},
            ],
        )
        assert len(tids) == 2
        assert db.validate() == []


# ----------------------------------------------------------------------
# Satellite: opt-in retry jitter
# ----------------------------------------------------------------------
class TestRetryJitter:
    def test_default_is_exactly_deterministic(self):
        policy = RetryPolicy()
        assert policy.jitter == 0.0
        expected = [0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]
        got = [policy.delay(attempt) for attempt in range(1, 8)]
        assert got == pytest.approx(expected)
        # Same delays on repeat: no hidden randomness at jitter=0.
        assert got == [policy.delay(attempt) for attempt in range(1, 8)]

    def test_jitter_stretches_within_bounds(self):
        policy = RetryPolicy(jitter=0.5)
        base = policy.base_delay
        assert policy.delay(1, rng=lambda: 0.0) == pytest.approx(base)
        assert policy.delay(1, rng=lambda: 1.0) == pytest.approx(base * 1.5)
        for _ in range(50):
            delay = policy.delay(1)
            assert base <= delay <= base * 1.5

    def test_jitter_never_shrinks_the_cap_floor(self):
        policy = RetryPolicy(jitter=1.0)
        capped = policy.delay(10, rng=lambda: 0.0)
        assert capped == pytest.approx(policy.max_delay)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestDurabilityCli:
    def test_snapshot_recover_fsck_flow(self, tmp_path, capsys):
        root = str(tmp_path / "durable")
        assert cli_main(["snapshot", "--dataset", "tiny", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "snapshot committed" in out and "wal:" in out

        assert cli_main(["recover", "--dir", root, "--query", "widom xml", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "recovered:" in out and "replay" in out

        assert cli_main(["fsck", "--dir", root]) == 0
        assert "fsck ok" in capsys.readouterr().out

    def test_fsck_dataset_mode(self, capsys):
        assert cli_main(["fsck", "--dataset", "tiny"]) == 0
        assert "fsck ok" in capsys.readouterr().out

    def test_recover_missing_dir_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing-here")
        assert cli_main(["recover", "--dir", missing]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_metrics_check_fk(self, capsys):
        assert (
            cli_main(["metrics", "widom xml", "--dataset", "tiny", "--check-fk"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["fk_violations"] == []
