"""``fsck``: cross-check the engine's derived state against the store.

Recovery claims exactness; ``fsck`` is the audit that backs the claim.
It walks four invariants and reports every violation (an empty report
is the pass condition the chaos tests gate on):

1. **Postings <-> tuple store.**  Every inverted-index posting points at
   a live row whose tokenized text actually contains the token, and —
   the reverse direction — every token of every text row appears in the
   index's matching set for that tuple.  Document counts and per-token
   document frequencies must agree with the matching sets.
2. **Cache version stamps.**  The substrate cache and the engine's
   served-version watermark must equal ``Database.data_version`` (a
   stale stamp means a cache could serve pre-mutation results).
3. **FK integrity** via :meth:`Database.validate` — the
   previously-unused integrity scan, now load-bearing.
4. **Shard ownership** against a :class:`ShardSet`: its ``homes`` must
   give every tuple of the store — and nothing else — one in-range
   home, equal to the one a fresh run of the partitioner derives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.index.inverted import InvertedIndex
from repro.index.text import tokenize
from repro.relational.database import Database, TupleId


@dataclass
class FsckReport:
    """Outcome of one verification pass."""

    problems: List[str] = field(default_factory=list)
    #: How many items each check examined (visibility that fsck ran).
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        self.problems.append(problem)

    def summary(self) -> str:
        coverage = ", ".join(
            f"{name}={count}" for name, count in sorted(self.checked.items())
        )
        status = "ok" if self.ok else f"{len(self.problems)} problem(s)"
        return f"fsck {status} ({coverage})"


def _check_index(db: Database, index: InvertedIndex, report: FsckReport) -> None:
    """Postings vs tuple store, both directions, plus df/doc-count."""
    postings_seen = 0
    for token in index.vocabulary:
        matching = index.matching_tuples_view(token)
        if index.document_frequency(token) != len(set(matching)):
            report.add(
                f"index: df({token!r})={index.document_frequency(token)} != "
                f"{len(set(matching))} distinct matching tuples"
            )
        for posting in index.postings(token):
            postings_seen += 1
            tid = posting.tid
            if tid.table not in db.tables:
                report.add(f"index: posting {token!r}->{tid} names unknown table")
                continue
            table = db.table(tid.table)
            if not 0 <= tid.rowid < len(table):
                report.add(f"index: posting {token!r}->{tid} past end of table")
                continue
            row = table.row(tid.rowid)
            value = row.get(posting.column)
            tokens = set(tokenize(str(value))) if value is not None else set()
            if token not in tokens:
                report.add(
                    f"index: posting {token!r}->{tid}.{posting.column} "
                    "not present in stored text"
                )
    report.checked["postings"] = postings_seen

    rows_checked = 0
    for table in db.tables.values():
        text_cols = table.schema.text_columns
        if not text_cols:
            continue
        for row in table.rows():
            rows_checked += 1
            tid = TupleId(table.name, row.rowid)
            for token in set(tokenize(row.text(text_cols))):
                if tid not in index.matching_tuples_view(token):
                    report.add(
                        f"store: {tid} contains {token!r} but is missing "
                        "from its posting list"
                    )
    report.checked["text_rows"] = rows_checked
    if index.document_count != rows_checked:
        report.add(
            f"index: document_count={index.document_count} != "
            f"{rows_checked} text rows in store"
        )


def _check_versions(engine, report: FsckReport) -> None:
    version = engine.db.data_version
    stamped = engine.substrates.stats()["version"]
    if stamped != version:
        report.add(
            f"cache: substrate version stamp {stamped} != data_version {version}"
        )
    served = engine._served_version
    if served != version:
        report.add(
            f"cache: engine served version {served} != data_version {version}"
        )
    report.checked["version_stamps"] = 2


def _check_shards(db: Database, shards, report: FsckReport) -> None:
    """The ownership map vs a fresh partitioner run over the store.

    ``homes`` is a dict, so "one home per tuple" is structural; equality
    with the re-derived home also rules out an out-of-range shard id.
    """
    expected = shards.partitioner.assign(db)
    homes = shards.homes
    for tid in homes.keys() - expected.keys():
        report.add(
            f"shards: {tid} has home {homes[tid]} but is not in the "
            "source database"
        )
    for tid, home in expected.items():
        if homes.get(tid) != home:
            report.add(
                f"shards: {tid} assigned home {home} but owned by "
                f"{homes.get(tid)}"
            )
    report.checked["shard_tuples"] = len(homes)


def fsck(
    engine=None,
    *,
    db: Optional[Database] = None,
    index: Optional[InvertedIndex] = None,
    shards=None,
) -> FsckReport:
    """Verify derived state against the tuple store.

    Pass an engine (its database, index, cache stamps — and shard set,
    when it has one — are all checked), or pass *db* / *index* /
    *shards* explicitly for lower-level audits.
    """
    report = FsckReport()
    if engine is not None:
        shards = shards if shards is not None else getattr(engine, "shards", None)
        db = engine.db
        index = engine.index
        _check_versions(engine, report)
    if db is None:
        raise ValueError("fsck needs an engine or a database")
    problems = db.validate()
    for problem in problems:
        report.add(f"fk: {problem}")
    report.checked["fk_rows"] = db.size()
    if index is not None:
        _check_index(db, index, report)
    if shards is not None:
        _check_shards(db, shards, report)
    return report
