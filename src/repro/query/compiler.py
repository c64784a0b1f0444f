"""Lower a :class:`StructuredQuery` onto the search methods — the one
lowering every query takes, bare keywords included.

A bare keyword query is the degenerate compiled query: one branch (the
token stream as typed), no weights, no row filter, no phrases.  The
engine's execute seam hands every ladder rung to :func:`execute_rung`;
the sharded coordinator scatters ``schema`` / ``index_only`` rungs over
the same building blocks and routes the rest through it.

========================  ==================================================
construct                 lowering
========================  ==================================================
field/range predicates    per-table allowed-row bitsets applied to every
                          tuple set (free and non-free) *before* CN
                          enumeration (:class:`FilteredTupleSets`), to the
                          keyword-group seeds of the graph methods, and as
                          a result-row post-filter
``term^w`` weights        :class:`WeightedIndexView` scales ``idf(term)``
                          so every TF·IDF scoring path (CN top-k,
                          index_only) becomes weighted; graph methods rank
                          by tree weight and ignore weights (graceful)
``OR`` groups             CNF groups expand into a capped cross-product of
                          conjunctive *branches*; each branch runs through
                          the conjunctive machinery and branch results
                          merge by max-score per tuple signature
``NOT term``              rows containing the term are banned from tuple
                          sets / seeds, plus the result post-filter
phrases                   phrase tokens join the conjunctive keywords;
                          results must contain a row with the tokens
                          adjacent (witness check on row text)
========================  ==================================================

Methods that cannot express a construct natively (the graph family:
banks/banks2/steiner/distinct_root/ease) still honour predicates,
NOT and phrases through seed filtering + the result post-filter; only
term weights are ignored there because their scores are tree weights,
not TF·IDF.

:func:`merge_branch_results` (post-filter, dedup on tuple signature,
``(-score, signature)`` order) is skipped exactly when the query is
bare: a bare answer keeps its executor's own order and duplicates.
Merging would change it — on 2 170 random bare (query, method, k) cases
over biblio-150/300 it dedups or re-orders 732 (rooted answers over one
node set, one tuple set reached through two CNs, ties the executors
break by label) — so the rule is read off the query, not offered as an
option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.results import SearchResult
from repro.index.text import tokenize
from repro.obs.trace import span as trace_span
from repro.relational.database import TupleId
from repro.resilience.errors import (
    BudgetExceededError,
    QueryParseError,
    UnsupportedSchemaError,
)
from repro.resilience.failpoints import fail_point
from repro.schema_search.scoring import tuple_score
from repro.schema_search.topk import topk_global_pipeline
from repro.schema_search.tuple_sets import TupleSetKey

from .parser import FieldPredicate, PhraseConstraint, StructuredQuery

#: Hard cap on the OR cross-product: one conjunctive execution per
#: branch, so this bounds work at ``MAX_BRANCHES`` × a normal query.
MAX_BRANCHES = 24


def _as_float(value: object) -> Optional[float]:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


# ----------------------------------------------------------------------
# Row filtering (predicates + NOT)
# ----------------------------------------------------------------------
class RowFilter:
    """Per-table allowed-rowid bitsets plus a banned tuple set."""

    __slots__ = ("allowed", "banned")

    def __init__(self, allowed: Dict[str, int], banned: Set[TupleId]):
        self.allowed = allowed
        self.banned = banned

    def allows(self, tid: TupleId) -> bool:
        if self.banned and tid in self.banned:
            return False
        bits = self.allowed.get(tid.table)
        if bits is None:
            return True
        return bool((bits >> tid.rowid) & 1)

    def allows_rows(self, rows) -> bool:
        """True when every (already materialised) row passes."""
        return all(
            self.allows(TupleId(row.table.name, row.rowid)) for row in rows
        )

    @property
    def tables(self) -> FrozenSet[str]:
        return frozenset(self.allowed)


def _predicate_matches(row, predicate: FieldPredicate, column: Optional[str]) -> bool:
    """Does *row* satisfy *predicate* (ignoring negation)?

    ``column is None`` means the predicate resolved to the row's table:
    the value must appear (token containment) anywhere in the row text.
    """
    if predicate.op == "range":
        cell = row.get(column) if column is not None else None
        num = _as_float(cell)
        if num is None:
            return False
        if predicate.lo is not None and num < predicate.lo:
            return False
        if predicate.hi is not None and num > predicate.hi:
            return False
        return True
    candidates = (predicate.value,) + predicate.alternatives
    if column is None:
        row_tokens = set(tokenize(row.text()))
        for value in candidates:
            value_tokens = tokenize(value)
            if value_tokens and all(tok in row_tokens for tok in value_tokens):
                return True
        return False
    cell = row.get(column)
    if cell is None:
        return False
    cell_num = _as_float(cell)
    cell_tokens = None
    for value in candidates:
        value_num = _as_float(value)
        if value_num is not None and cell_num is not None:
            if value_num == cell_num:
                return True
            continue
        value_tokens = tokenize(value)
        if not value_tokens:
            continue
        if cell_tokens is None:
            cell_tokens = set(tokenize(str(cell)))
        if all(tok in cell_tokens for tok in value_tokens):
            return True
    return False


def resolve_field(db, field_name: str) -> List[Tuple[str, Optional[str]]]:
    """Resolve a DSL field to ``[(table, column-or-None), ...]``.

    A column name (in any table) wins over a table name; a table name
    means "value appears in the row text of that table".  Unknown
    fields raise :class:`QueryParseError` listing what is addressable.
    """
    hits: List[Tuple[str, Optional[str]]] = []
    for name, table in db.tables.items():
        if table.schema.has_column(field_name):
            hits.append((name, field_name))
    if hits:
        return hits
    if field_name in db.tables:
        return [(field_name, None)]
    known = sorted(
        set(db.tables)
        | {c for t in db.tables.values() for c in t.schema.column_names}
    )
    raise QueryParseError(
        f"unknown field {field_name!r} (addressable: {', '.join(known)})"
    )


def build_row_filter(engine, query: StructuredQuery) -> Optional[RowFilter]:
    """Materialise predicates + NOT terms into a :class:`RowFilter`."""
    banned: Set[TupleId] = set()
    for token in query.excluded:
        banned.update(engine.index.matching_tuples_view(token.lower()))
    allowed: Dict[str, int] = {}
    if query.predicates:
        by_table: Dict[str, List[Tuple[FieldPredicate, Optional[str]]]] = {}
        for predicate in query.predicates:
            for table, column in resolve_field(engine.db, predicate.field):
                by_table.setdefault(table, []).append((predicate, column))
        for table_name, preds in by_table.items():
            table = engine.db.table(table_name)
            bits = 0
            for rowid in range(len(table)):
                row = engine.db.row(TupleId(table_name, rowid))
                ok = True
                for predicate, column in preds:
                    hit = _predicate_matches(row, predicate, column)
                    if hit == predicate.negated:
                        ok = False
                        break
                if ok:
                    bits |= 1 << rowid
            allowed[table_name] = bits
    if not banned and not allowed:
        return None
    return RowFilter(allowed, banned)


# ----------------------------------------------------------------------
# Substrate views
# ----------------------------------------------------------------------
class FilteredTupleSets:
    """Read-only predicate view over a (possibly memoised) TupleSets.

    Delegates identity lookups to the base object and filters
    membership through the :class:`RowFilter`, so the shared memo is
    never mutated and CN enumeration / execution see only allowed
    rows — the predicate pushdown that happens *before* CN
    enumeration.  Keys whose membership filters to empty disappear
    from :meth:`non_free_keys`, shrinking the CN space accordingly.
    """

    def __init__(self, base, row_filter: RowFilter):
        self.base = base
        self.row_filter = row_filter
        self.db = base.db
        self.keywords = base.keywords
        self._members: Dict[TupleSetKey, List[TupleId]] = {}

    def tuple_ids(self, key: TupleSetKey) -> List[TupleId]:
        cached = self._members.get(key)
        if cached is None:
            allows = self.row_filter.allows
            cached = [t for t in self.base.tuple_ids(key) if allows(t)]
            self._members[key] = cached
        return list(cached)

    def member_test(self, key: TupleSetKey) -> Callable[[int], bool]:
        """The base's O(1) membership test narrowed by the row filter."""
        member = self.base.member_test(key)
        allows = self.row_filter.allows
        table = key.table
        return lambda rowid: member(rowid) and allows(TupleId(table, rowid))

    def rows(self, key: TupleSetKey):
        return [self.db.row(tid) for tid in self.tuple_ids(key)]

    def size(self, key: TupleSetKey) -> int:
        return len(self.tuple_ids(key))

    def non_free_keys(self) -> List[TupleSetKey]:
        return [k for k in self.base.non_free_keys() if self.size(k) > 0]

    def covered_keywords(self) -> Set[str]:
        out: Set[str] = set()
        for key in self.non_free_keys():
            out |= key.keywords
        return out

    def __repr__(self) -> str:
        return f"Filtered({self.base!r})"


class WeightedIndexView:
    """Index proxy scaling ``idf(term)`` by per-term DSL weights.

    Every TF·IDF scoring path takes the index as a parameter, so
    substituting this view makes CN top-k and index_only scoring
    weighted without touching :mod:`repro.schema_search`.
    """

    __slots__ = ("_index", "_weights")

    def __init__(self, index, weights: Dict[str, float]):
        self._index = index
        self._weights = weights

    def idf(self, token: str) -> float:
        return self._index.idf(token) * self._weights.get(token.lower(), 1.0)

    def __getattr__(self, name):
        return getattr(self._index, name)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
@dataclass
class CompiledQuery:
    """Execution plan: conjunctive branches + filters + weights."""

    query: StructuredQuery
    branches: Tuple[Tuple[str, ...], ...]
    weights: Dict[str, float] = field(default_factory=dict)
    row_filter: Optional[RowFilter] = None

    def index_view(self, index):
        if not self.weights:
            return index
        return WeightedIndexView(index, self.weights)

    @property
    def allows(self):
        """The row filter's ``allows(tid)``, or None when every row passes."""
        return None if self.row_filter is None else self.row_filter.allows

    # -- result post-filters ------------------------------------------
    def result_ok(self, result) -> bool:
        rows = result.joined.distinct_rows()
        if self.row_filter is not None and not self.row_filter.allows_rows(rows):
            return False
        for phrase in self.query.phrases:
            if not any(_phrase_in_row(row, phrase) for row in rows):
                return False
        return True


def _phrase_in_row(row, phrase: PhraseConstraint) -> bool:
    tokens = tokenize(row.text())
    want = phrase.tokens
    span = len(want)
    if span > len(tokens):
        return False
    for start in range(len(tokens) - span + 1):
        if tuple(tokens[start : start + span]) == want:
            return True
    return False


def compile_query(engine, query: StructuredQuery) -> CompiledQuery:
    """Compile against a concrete engine (schema + index).

    A bare query compiles to one branch, its token stream as typed: a
    repeated keyword stays repeated (it counts twice in TF·IDF, as it
    always has), where a DSL branch lists each token once.

    Raises :class:`QueryParseError` for unknown fields or an OR
    cross-product beyond :data:`MAX_BRANCHES`.
    """
    if query.branch_count() > MAX_BRANCHES:
        raise QueryParseError(
            f"query expands to {query.branch_count()} conjunctive branches "
            f"(cap {MAX_BRANCHES}); simplify the OR structure"
        )
    weights: Dict[str, float] = {}
    for group in query.groups:
        for term in group:
            if term.weight != 1.0:
                weights[term.token] = max(
                    weights.get(term.token, 0.0), term.weight
                )
    branches: List[Tuple[str, ...]] = []
    if query.groups:
        bare = query.is_bare
        for choice in product(*query.groups):
            tokens = [term.token for term in choice]
            branches.append(tuple(tokens if bare else dict.fromkeys(tokens)))
    return CompiledQuery(
        query=query,
        branches=tuple(branches),
        weights=weights,
        row_filter=build_row_filter(engine, query),
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_rung(engine, compiled, k, method, budget=None, tracer=None):
    """The local executor: run every branch through *method*, then merge.

    The one place a ladder rung executes whole in this process, for
    every query shape — which is why the ``engine.method`` failpoint
    lives here (the sharded coordinator fires it itself for the rungs
    it scatters instead).  Returns a plain list of SearchResults (the
    engine wraps them in a ResultSet with degradation metadata).
    """
    fail_point("engine.method", key=method)
    gathered = []
    for branch in compiled.branches:
        with trace_span(tracer, "branch") as bsp:
            bsp.tag("keywords", " ".join(branch))
            keywords = list(branch)
            if method == "schema":
                found = _branch_schema(engine, compiled, keywords, k, budget, tracer)
            elif method == "index_only":
                found = _branch_index_only(
                    engine, compiled, keywords, k, budget, tracer
                )
            else:
                found = graph_results(
                    engine, compiled.allows, keywords, k, method, budget, tracer
                )
            gathered.extend(found)
    return merge_branch_results(gathered, compiled, k)


def merge_branch_results(results, compiled, k):
    """Post-filter, dedup and order results — one rule for every path.

    Shared by :func:`execute_rung` and the sharding coordinator's
    gathers, so sharded and single-engine answers to the same query
    sort identically.  A bare query has one branch and nothing to
    post-filter: its answers stand as the executor ranked them.
    Deduplication across branches keeps the best score per tuple
    signature; ordering is (score desc, tuple ids).
    """
    if compiled.query.is_bare:
        return results
    merged: Dict[Tuple, object] = {}
    for result in results:
        if not compiled.result_ok(result):
            continue
        signature = tuple(sorted(result.tuple_ids()))
        prior = merged.get(signature)
        if prior is None or result.score > prior.score:
            merged[signature] = result
    ordered = sorted(merged.items(), key=lambda kv: (-kv[1].score, kv[0]))
    return [result for _, result in ordered[:k]]


def predicate_only_results(engine, compiled, k):
    """Answers for a query with predicates but no keywords.

    The CN/graph machinery needs keywords to join on; a pure
    ``field:value`` query degrades gracefully to the satisfying rows
    themselves, one single-tuple answer per row, in tuple-id order.
    """
    row_filter = compiled.row_filter
    if row_filter is None or not row_filter.allowed:
        return []
    out = []
    for table_name in sorted(row_filter.allowed):
        bits = row_filter.allowed[table_name]
        rowid = 0
        while bits:
            if bits & 1:
                tid = TupleId(table_name, rowid)
                if not row_filter.banned or tid not in row_filter.banned:
                    out.append(
                        SearchResult(
                            score=1.0,
                            network=f"filter({table_name})",
                            joined=engine._tree_to_joined({tid}),
                        )
                    )
                    if len(out) >= k:
                        return out
            bits >>= 1
            rowid += 1
    return out


def structured_substrates(engine, compiled, keywords, budget=None, tracer=None):
    """(tuple_sets, cns, index_view) for one conjunctive branch.

    Shared by the in-process engine and the sharding coordinator so
    scattered CN plans carry the *filtered* tuple sets — predicates
    ride to the shards instead of being re-checked at the gather.

    Raises :class:`UnsupportedSchemaError` over a self-referencing
    foreign key: a CN edge does not record which end owns the FK, so a
    CN and its unsatisfiable mirror share a code and a join.
    """
    for edge in engine.schema_graph.edges:
        if edge.child == edge.parent:
            raise UnsupportedSchemaError(
                f"method 'schema' cannot join over the self-referencing "
                f"foreign key {edge.child}.{edge.fk} (use a graph method "
                f"such as banks, or fallback=True)"
            )
    with trace_span(tracer, "substrate_build") as ssp:
        base = engine.substrates.tuple_sets(keywords)
        if compiled.row_filter is not None:
            tuple_sets = FilteredTupleSets(base, compiled.row_filter)
        else:
            tuple_sets = base
        surviving = tuple_sets.non_free_keys()
        ssp.add("tuple_set_keys", len(surviving))
    with trace_span(tracer, "cn_enumerate") as nsp:
        if tuple_sets is base or surviving == base.non_free_keys():
            # CN enumeration depends only on which tuple sets are
            # non-empty: a filter that empties none shares the memo.
            cns = engine.substrates.candidate_networks(
                keywords, engine.max_cn_size, budget=budget
            )
        else:
            cns = engine.substrates.enumerate_networks(
                tuple_sets, engine.max_cn_size, budget
            )
        nsp.add("cns", len(cns))
    return tuple_sets, cns, compiled.index_view(engine.index)


def schema_results(rows):
    """``(score, label, joined)`` rows off a top-k heap as SearchResults."""
    return [
        SearchResult(score=score, network=label, joined=joined)
        for score, label, joined in rows
    ]


def _branch_schema(engine, compiled, keywords, k, budget, tracer):
    tuple_sets, cns, index = structured_substrates(
        engine, compiled, keywords, budget=budget, tracer=tracer
    )
    if not cns:
        return []
    result = topk_global_pipeline(
        cns, tuple_sets, index, keywords, k=k, budget=budget, tracer=tracer
    )
    engine._record_sharing(result.stats)
    return schema_results(result.results)


def score_matching_tuples(index, keywords, allows=None, budget=None):
    """``index_only`` scoring: every tuple matching any keyword, once.

    Scores with the same monotonic TF·IDF the CN pipeline uses (through
    *index*, so a weighted view weights it), skipping tuples *allows*
    rejects — the row filter, a shard's ownership, or both.  One
    ``tick_candidates`` per scored tuple; on exhaustion the partial map
    comes back and the caller sees ``budget.exhausted``.
    """
    scored: Dict[TupleId, float] = {}
    try:
        for keyword in keywords:
            for tid in index.matching_tuples_view(keyword.lower()):
                if tid in scored or (allows is not None and not allows(tid)):
                    continue
                if budget is not None:
                    budget.tick_candidates()
                scored[tid] = tuple_score(index, tid, keywords)
    except BudgetExceededError:
        pass
    return scored


def index_only_results(engine, scored, k):
    """Top-*k* of a scored-tuple map, ``(-score, tid)`` order, wrapped."""
    top = sorted(scored.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [
        SearchResult(
            score=score,
            network=f"index-only({tid.table})",
            joined=engine._tree_to_joined({tid}),
        )
        for tid, score in top
    ]


def _branch_index_only(engine, compiled, keywords, k, budget, tracer):
    """Terminal ladder rung: single tuples, no joins, no graph — cheap
    enough to finish under any budget that permits k candidate scorings."""
    with trace_span(tracer, "substrate_build"):
        index = compiled.index_view(engine.index)
    with trace_span(tracer, "evaluate") as esp:
        scored = score_matching_tuples(index, keywords, compiled.allows, budget)
        esp.add("tuples_scored", len(scored))
    with trace_span(tracer, "topk") as tsp:
        out = index_only_results(engine, scored, k)
        tsp.add("results", len(out))
    return out


def filtered_keyword_groups(engine, allows, keywords):
    """Keyword-match seed groups with banned/filtered rows removed.

    Returns ``None`` when a keyword has no (surviving) matches — AND
    semantics then yields no answers.
    """
    groups = engine.substrates.keyword_groups(list(keywords))
    if groups is None or allows is None:
        return groups
    filtered = [[tid for tid in group if allows(tid)] for group in groups]
    if any(not group for group in filtered):
        return None
    return filtered


def graph_results(engine, allows, keywords, k, method, budget, tracer):
    """Graph-family lowering: seed groups -> algorithm -> SearchResults.

    Term weights do not lower here (scores are tree weights); phrase
    and predicate semantics are enforced by seed filtering (*allows*)
    plus the shared result post-filter in :func:`merge_branch_results`.
    """
    from repro.graph_search.banks import banks_backward, banks_bidirectional
    from repro.graph_search.ease import r_radius_steiner_graphs
    from repro.graph_search.semantics import distinct_root_results
    from repro.graph_search.steiner import group_steiner_dp

    with trace_span(tracer, "substrate_build") as ssp:
        groups = filtered_keyword_groups(engine, allows, keywords)
        ssp.add("keyword_groups", len(groups) if groups else 0)
    if groups is None:
        return []
    # (score, network label, answer nodes) per answer, best first.
    with trace_span(tracer, "evaluate") as esp:
        graph = engine.data_graph
        span = esp if tracer is not None else None
        if method in ("banks", "banks2"):
            algo = banks_bidirectional if method == "banks2" else banks_backward
            trees = algo(graph, groups, k=k, budget=budget, span=span).trees
            esp.add("trees", len(trees))
            found = [
                (1.0 / (1.0 + t.weight), f"banks-tree(root={t.root})", t.nodes)
                for t in trees
            ]
        elif method == "steiner":
            tree = group_steiner_dp(graph, groups, budget=budget, span=span)
            esp.add("trees", 0 if tree is None else 1)
            found = [] if tree is None else [
                (1.0 / (1.0 + tree.weight), f"steiner(weight={tree.weight:.1f})",
                 tree.nodes)
            ]
        elif method == "distinct_root":
            dmax = engine.distance_index.max_distance
            answers = distinct_root_results(
                graph, groups, dmax=dmax, k=k, budget=budget
            )
            esp.add("answers", len(answers))
            found = [
                (1.0 / (1.0 + a.cost), f"distinct-root(root={a.root})",
                 {a.root, *a.matches})
                for a in answers
            ]
        elif method == "ease":
            answers = r_radius_steiner_graphs(graph, groups, r=2, k=k, budget=budget)
            esp.add("answers", len(answers))
            found = [
                (1.0 / a.size(), f"ease(center={a.center})", a.nodes)
                for a in answers
            ]
        else:
            raise QueryParseError(f"unknown method {method!r}")
    with trace_span(tracer, "score") as psp:
        out = [
            SearchResult(score=score, network=network,
                         joined=engine._tree_to_joined(nodes))
            for score, network, nodes in found
        ]
        psp.add("results", len(out))
    return out
