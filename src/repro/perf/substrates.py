"""Memoised query substrates with mutation-counter invalidation.

``KeywordSearchEngine.search`` used to rebuild the same intermediate
structures on every call: the query's tuple sets, the candidate networks
enumerated from them, the per-keyword tuple groups the graph algorithms
start from, and (for ``suggest_forms``) the entire skeleton → form →
:class:`~repro.forms.matching.FormIndex` pipeline.  All of these depend
only on (database contents, keyword set, a couple of size knobs), so a
serving engine can compute each once and reuse it across requests — the
shared-execution argument of slides 129-133.

:class:`SubstrateCache` memoises all four families.  Every public
accessor first compares the database's :attr:`Database.data_version`
against the version the cache was filled under, so a mutated database
can never serve stale substrates.  Because the data model is
insert-only, the default reaction to a mutation is an *incremental
delta*: the inverted index patches postings for the appended rows and
every memoised :class:`TupleSets` re-classifies just those rows,
keeping warm-cache speedups across writes; memoised CN lists drop only
when a new tuple-set key appears (a delta that raises falls back to
dropping everything).  Builds take a lock (double-checked) so
concurrent batch workers share one build instead of racing.

The per-keyword-set memos are bounded: HTTP clients choose the keyword
sets, and every insert patches every memoised :class:`TupleSets`, so
both live in one LRU of :data:`QUERY_MEMO_CAPACITY` entries — a tuple
set together with the CN lists enumerated from it, evicted as a unit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.forms.generation import generate_forms, generate_skeletons
from repro.forms.matching import FormIndex
from repro.index.inverted import InvertedIndex
from repro.relational.database import Database, TupleId
from repro.perf.lru import LRUCache
from repro.relational.schema_graph import SchemaGraph
from repro.resilience.budget import QueryBudget
from repro.resilience.errors import (
    BudgetExceededError,
    ReproError,
    SubstrateBuildError,
)
from repro.resilience.failpoints import fail_point
from repro.schema_search.candidate_networks import (
    CandidateNetwork,
    generate_candidate_networks,
)
from repro.schema_search.tuple_sets import TupleSets


#: Distinct keyword sets whose tuple sets + CN lists stay memoised.
QUERY_MEMO_CAPACITY = 256


def normalize_keywords(keywords: Sequence[str]) -> Tuple[str, ...]:
    """Canonical cache key for a keyword multiset: sorted, lowered, unique."""
    return tuple(sorted({k.lower() for k in keywords}))


@dataclass
class _QueryMemo:
    """One keyword set's substrates: its tuple sets and their CN lists.

    ``networks`` maps ``max_size`` to a *complete* CN list and the
    number of partial trees enumeration dequeued to produce it — what a
    budgeted request is charged on a hit.
    """

    tuple_sets: TupleSets
    networks: Dict[int, Tuple[List[CandidateNetwork], int]] = field(
        default_factory=dict
    )


class SubstrateCache:
    """Per-engine memo of query substrates, invalidated by data version."""

    def __init__(
        self,
        db: Database,
        index_supplier: Callable[[], InvertedIndex],
        schema_graph_supplier: Callable[[], SchemaGraph],
    ):
        self.db = db
        self._index = index_supplier
        self._schema_graph = schema_graph_supplier
        self._lock = threading.RLock()
        self._version = db.data_version
        self._queries = LRUCache(QUERY_MEMO_CAPACITY)
        self._keyword_matches: Dict[str, Tuple[TupleId, ...]] = {}
        self._form_pipeline: Dict[int, Tuple[tuple, tuple, FormIndex]] = {}
        self.builds: Dict[str, int] = {
            "tuple_sets": 0,
            "candidate_networks": 0,
            "keyword_groups": 0,
            "form_pipeline": 0,
        }
        self.invalidations = 0
        self.patches: Dict[str, int] = {
            "applied": 0,
            "index_rows": 0,
            "tuple_sets_patched": 0,
            "cn_memos_dropped": 0,
        }
        #: True when the last version bump was absorbed by an in-place
        #: patch — the engine uses this to decide whether its own
        #: index-derived structures survived.
        self.last_delta_applied = False
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set (the engine wires its own in), every build observes a
        #: ``substrates.build_ms.<site>`` histogram.
        self.metrics = None

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def check_version(self) -> None:
        """Reconcile with a mutated database.

        Appended rows are patched into the warm index and memoised
        tuple sets (see :meth:`_apply_delta`); only stale CN memos and
        the cheap keyword/form memos drop.  If the delta fails,
        everything is cleared.
        """
        with self._lock:
            version = self.db.data_version
            if version == self._version:
                return
            self._version = version
            self.last_delta_applied = self._apply_delta()
            if not self.last_delta_applied:
                self._clear_locked()
                self.invalidations += 1

    def _apply_delta(self) -> bool:
        """Patch memoised substrates in place for appended rows.

        The data model is insert-only, so a delta always exists: the
        index refreshes its posting suffixes, each memoised
        :class:`TupleSets` re-classifies only the new rows, and a CN
        memo is dropped *only* when its keyword set gained a brand-new
        tuple-set key (CN enumeration depends only on which keys are
        non-empty).  Keyword-match and form memos are cleared — they
        are cheap to rebuild and not worth a patch path.  Returns False
        on any failure, in which case the caller falls back to the full
        clear.
        """
        try:
            index = self._index()
            self.patches["index_rows"] += index.refresh()
            for memo in self._queries.values():
                created = memo.tuple_sets.refresh()
                self.patches["tuple_sets_patched"] += 1
                if created:
                    self.patches["cn_memos_dropped"] += len(memo.networks)
                    memo.networks.clear()
            self._keyword_matches.clear()
            self._form_pipeline.clear()
            self.patches["applied"] += 1
            return True
        except Exception:
            return False

    def clear(self) -> None:
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._queries.clear()
        self._keyword_matches.clear()
        self._form_pipeline.clear()

    # ------------------------------------------------------------------
    # Substrates
    # ------------------------------------------------------------------
    def _query_memo(self, key: Tuple[str, ...]) -> _QueryMemo:
        """The memo entry for *key* (lock held), building its tuple sets."""
        memo = self._queries.get(key)
        if memo is None:
            memo = _QueryMemo(
                self._build(
                    "tuple_sets",
                    lambda: TupleSets(self.db, self._index(), key),
                    key=" ".join(key),
                )
            )
            self._queries.put(key, memo)
            self.builds["tuple_sets"] += 1
        return memo

    def tuple_sets(self, keywords: Sequence[str]) -> TupleSets:
        """The query's tuple sets, shared across identical keyword sets."""
        self.check_version()
        with self._lock:
            return self._query_memo(normalize_keywords(keywords)).tuple_sets

    def candidate_networks(
        self,
        keywords: Sequence[str],
        max_size: int,
        budget: Optional[QueryBudget] = None,
    ) -> List[CandidateNetwork]:
        """Duplicate-free CNs for (keyword set, max size), memoised.

        A *complete* CN list is valid under any budget, so a hit charges
        *budget* the ``tick_cns`` enumeration would have cost and serves
        the memo.  When that charge would cross ``max_cns`` — or on a
        miss — enumeration runs under the budget exactly as it would
        without a memo, and the list is stored only if it finished.
        """
        self.check_version()
        key = normalize_keywords(keywords)
        with self._lock:
            memo = self._query_memo(key)
            cached = memo.networks.get(max_size)
            if cached is not None:
                cns, cost = cached
                if budget is None:
                    return cns
                if (
                    budget.max_cns is None
                    or budget.cns_enumerated + cost <= budget.max_cns
                ):
                    try:
                        budget.tick_cns(cost)
                        return cns
                    except BudgetExceededError:
                        pass  # deadline passed; enumeration stops at once
            # Enumeration is metered either way: the dequeue count of a
            # complete list is what later budgeted hits are charged.
            meter = budget if budget is not None else QueryBudget()
            before = meter.cns_enumerated
            cns = self.enumerate_networks(memo.tuple_sets, max_size, meter)
            if not meter.exhausted:
                memo.networks[max_size] = (cns, meter.cns_enumerated - before)
            return cns

    def enumerate_networks(
        self, tuple_sets, max_size: int, budget: Optional[QueryBudget] = None
    ) -> List[CandidateNetwork]:
        """Enumerate CNs over *tuple_sets* inside the fault boundary.

        The one call into the generator, shared by the memoised path
        above and a structured query's row-filtered view (whose list
        depends on the filter and is not stored).
        """
        cns = self._build(
            "candidate_networks",
            lambda: generate_candidate_networks(
                self._schema_graph(), tuple_sets, max_size=max_size, budget=budget
            ),
            key=" ".join(tuple_sets.keywords),
        )
        if budget is None or not budget.exhausted:
            with self._lock:
                self.builds["candidate_networks"] += 1
        return cns

    def keyword_groups(
        self, keywords: Sequence[str]
    ) -> Optional[List[List[TupleId]]]:
        """Per-keyword matching-tuple groups (graph-search seeds).

        Returns ``None`` when any keyword matches nothing (AND
        semantics).  Inner lists are fresh copies — the graph algorithms
        are free to mutate them.
        """
        self.check_version()
        index = self._index()
        groups: List[List[TupleId]] = []
        for keyword in keywords:
            keyword = keyword.lower()
            with self._lock:
                match = self._keyword_matches.get(keyword)
                if match is None:
                    kw = keyword
                    match = self._build(
                        "keyword_groups",
                        lambda: index.matching_tuples_view(kw),
                        key=kw,
                    )
                    self._keyword_matches[keyword] = match
                    self.builds["keyword_groups"] += 1
            if not match:
                return None
            groups.append(list(match))
        return groups

    def form_pipeline(
        self, max_skeleton_size: int = 3
    ) -> Tuple[tuple, tuple, FormIndex]:
        """(skeletons, forms, FormIndex) — built once per skeleton size."""
        self.check_version()
        with self._lock:
            cached = self._form_pipeline.get(max_skeleton_size)
            if cached is None:

                def build() -> Tuple[tuple, tuple, FormIndex]:
                    skeletons = tuple(
                        generate_skeletons(
                            self._schema_graph(), max_size=max_skeleton_size
                        )
                    )
                    forms = tuple(generate_forms(self.db.schema, skeletons))
                    return (skeletons, forms, FormIndex(forms, self._index()))

                cached = self._build("form_pipeline", build)
                self._form_pipeline[max_skeleton_size] = cached
                self.builds["form_pipeline"] += 1
            return cached

    # ------------------------------------------------------------------
    # Fault isolation
    # ------------------------------------------------------------------
    def _build(self, site: str, builder: Callable, key: Optional[str] = None):
        """Run a substrate build inside the fault boundary.

        Hits the ``substrates.<site>`` failpoint first (so chaos tests
        can inject faults or delays per keyword), then converts any
        build exception into a transient :class:`SubstrateBuildError`
        that the batch executor retries and counts against the circuit
        breaker.  Nothing is memoised on failure.
        """
        try:
            fail_point(f"substrates.{site}", key=key)
            metrics = self.metrics
            if metrics is None:
                return builder()
            start_s = time.perf_counter()
            built = builder()
            metrics.observe(
                f"substrates.build_ms.{site}",
                (time.perf_counter() - start_s) * 1000.0,
            )
            return built
        except ReproError:
            raise
        except Exception as exc:
            raise SubstrateBuildError(site, exc) from exc

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "version": self._version,
                "invalidations": self.invalidations,
                "patches": dict(self.patches),
                "builds": dict(self.builds),
                "entries": {
                    "tuple_sets": len(self._queries),
                    "candidate_networks": sum(
                        len(memo.networks) for memo in self._queries.values()
                    ),
                    "keyword_groups": len(self._keyword_matches),
                    "form_pipeline": len(self._form_pipeline),
                },
                "bytes": self.memo_bytes(),
            }

    def memo_bytes(self) -> int:
        """Deep size of the memoised substrates this cache uniquely pins.

        Stops at the database/table/index layer — a memoised tuple set
        references rows and the inverted index but does not own them —
        so this is the marginal cost of keeping the cache warm.
        """
        from repro.obs.memory import sizeof_each
        from repro.relational.table import Table

        roots = (
            list(self._queries.values())
            + list(self._keyword_matches.values())
            + list(self._form_pipeline.values())
        )
        return sizeof_each(roots, stop=(Database, Table, InvertedIndex))

    def __repr__(self) -> str:
        return (
            f"SubstrateCache(v{self._version}, "
            f"{len(self._queries)} memoised keyword sets)"
        )
