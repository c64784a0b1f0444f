"""Generated oracle for the query cleaner a mutation patches.

``KeywordSearchEngine.refresh()`` keeps its query cleaner; the first
reader after a mutation takes a copy patched with the rows the index
absorbed since the cleaner's watermark (``QueryCleaner.refreshed``).
Over generated insert sequences with searches interleaved — so the
cleaner goes stale at arbitrary points — on the dict, columnar and disk
backends, and with rows inserted into the database but not yet absorbed
by the index, the patched cleaner must equal a fresh
``QueryCleaner(index)``: document frequencies, total, sorted q-gram
vocabulary, the confusion set of every vocabulary token and of every
string one edit from one, and ``clean()`` on generated queries.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ambiguity import cleaning
from repro.ambiguity.cleaning import QueryCleaner
from repro.core.engine import KeywordSearchEngine
from repro.index.inverted import InvertedIndex
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, Schema, TableSchema

#: Tokens one or two edits apart, so confusion sets overlap, plus
#: short ones the q-gram count filter cannot reject.
WORDS = ("data", "date", "dates", "xml", "xlm", "query", "quer", "ab", "b", "widom")
BACKENDS = ("dict", "columnar", "disk")


def _schema() -> Schema:
    return Schema(
        [
            TableSchema(
                "doc",
                (Column("id", "int"), Column("txt", "str", nullable=True, text=True)),
                "id",
            ),
            TableSchema(
                "note",
                (
                    Column("id", "int"),
                    Column("body", "str", nullable=True, text=True),
                    Column("doc", "int", nullable=True),
                ),
                "id",
                (ForeignKey("doc", "doc", "id"),),
            ),
        ]
    )


texts = st.one_of(
    st.none(), st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
)
#: ("doc", text) / ("note", text) inserts, "search" (refresh, then read
#: the cleaner) and "peek" (read the cleaner with inserts unabsorbed).
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["doc", "note"]), texts),
        st.just(("search", None)),
        st.just(("peek", None)),
    ),
    max_size=12,
)
queries = st.lists(
    st.lists(
        st.one_of(st.sampled_from(WORDS), st.sampled_from(["dta", "qery", "xmll"])),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=3,
)


def _insert(db: Database, table: str, text) -> None:
    rowid = len(db.table(table))
    if table == "doc":
        db.insert("doc", id=rowid, txt=text)
    else:
        db.insert("note", id=rowid, body=text, doc=rowid % len(db.table("doc")))


def _build(initial):
    db = Database(_schema())
    db.insert("doc", id=0, txt="data xml")
    for table, text in initial:
        _insert(db, table, text)
    return db


def _one_edit(token: str):
    """*token* and strings one deletion, substitution or insertion away."""
    out = {token}
    for i in range(len(token) + 1):
        out.add(token[:i] + "q" + token[i:])
        if i < len(token):
            out.add(token[:i] + token[i + 1 :])
            out.add(token[:i] + "a" + token[i + 1 :])
    return out


def assert_equals_fresh(cleaner: QueryCleaner, index, texts_to_clean) -> None:
    fresh = QueryCleaner(index)
    patched, want = cleaner.corrector, fresh.corrector
    assert patched.frequencies == want.frequencies
    assert patched.total == want.total
    vocabulary = patched._qgrams.vocabulary
    assert vocabulary == want._qgrams.vocabulary == sorted(want.frequencies)
    for token in vocabulary:
        for variant in _one_edit(token):
            assert patched.confusion_set(variant) == want.confusion_set(variant)
    for tokens in texts_to_clean:
        assert cleaner.clean(tokens) == fresh.clean(tokens)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(st.tuples(st.sampled_from(["doc", "note"]), texts), max_size=4),
    plan=steps,
    backend=st.sampled_from(BACKENDS),
    texts_to_clean=queries,
)
def test_patched_cleaner_equals_a_fresh_one(initial, plan, backend, texts_to_clean):
    db = _build(initial)
    engine = KeywordSearchEngine(db, backend=backend)
    try:
        engine.search("data", k=3, method="index_only")  # build the cleaner
        for table, text in plan:
            if table == "search":
                engine.search(" ".join(WORDS[:2]), k=3, method="index_only")
            elif table == "peek":
                pass  # inserts since the last search are not indexed yet
            else:
                _insert(db, table, text)
                continue
            assert_equals_fresh(engine.cleaner, engine.index, texts_to_clean)
        engine.refresh()
        assert_equals_fresh(engine.cleaner, engine.index, texts_to_clean)
    finally:
        engine.close()


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(st.tuples(st.sampled_from(["doc", "note"]), texts), max_size=4),
    batches=st.lists(
        st.lists(st.tuples(st.sampled_from(["doc", "note"]), texts), max_size=3),
        max_size=4,
    ),
    absorb=st.lists(st.booleans(), min_size=4, max_size=4),
    backend=st.sampled_from(BACKENDS),
    texts_to_clean=queries,
)
def test_unabsorbed_rows_are_patched_in_once_absorbed(
    initial, batches, absorb, backend, texts_to_clean
):
    """The watermark is the index's, never the table length: a cleaner
    refreshed while rows sit in the database unindexed stays equal to a
    fresh one over that index, and picks the rows up once the index
    absorbs them.  The stale cleaner is never modified."""
    db = _build(initial)
    index = InvertedIndex(db, backend=backend)
    try:
        cleaner = QueryCleaner(index)
        for batch, absorbed in zip(batches, absorb):
            before = (dict(cleaner.corrector.frequencies), cleaner.corrector.total)
            for table, text in batch:
                _insert(db, table, text)
            if absorbed:
                index.refresh()
            stale, cleaner = cleaner, cleaner.refreshed()
            assert (stale.corrector.frequencies, stale.corrector.total) == before
            assert_equals_fresh(cleaner, index, texts_to_clean)
        index.refresh()
        assert_equals_fresh(cleaner.refreshed(), index, texts_to_clean)
    finally:
        index.close()


def test_one_cleaner_build_per_engine_across_inserts(monkeypatch):
    """Insert, search, insert, search ...: the engine builds its query
    cleaner once; every later reader patches it."""
    builds = []
    real = QueryCleaner.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cleaning.QueryCleaner, "__init__", counting)
    db = _build([("note", "date query"), ("doc", "widom")])
    engine = KeywordSearchEngine(db)
    for i in range(6):
        _insert(db, "doc", f"xml {WORDS[i]} token{i}")
        _insert(db, "note", "dates")
        assert engine.search("dta xml", k=3)
        assert engine.parse("dta xml").keywords == ("data", "xml")
    assert len(builds) == 1
    monkeypatch.setattr(cleaning.QueryCleaner, "__init__", real)
    assert_equals_fresh(engine.cleaner, engine.index, [["dta", "xml"], ["qery"]])


def test_failed_delta_drops_the_cleaner():
    """A delta the substrates could not apply still drops everything,
    the cleaner included."""
    db = _build([])
    engine = KeywordSearchEngine(db)
    engine.search("data", k=3)
    first = engine.cleaner
    engine.substrates._apply_delta = lambda: False
    _insert(db, "doc", "xml")
    engine.refresh()
    assert engine._cleaner is None
    assert engine.cleaner is not first
