"""Response pipeline: expansion, facets and highlighting around search.

One call — :func:`execute_pipeline` — wires the previously siloed
:mod:`repro.ambiguity` (spelling, synonyms) and
:mod:`repro.analysis` (facets, snippets) scenarios around a core
search, producing a :class:`QueryResponse`:

* ``expand=`` (comma-separated knobs):

  - ``spelling`` — report the cleaner's rewrite of bare keywords as a
    ``rewrites`` entry (the rewrite itself is always applied by the
    engine's canonical parse);
  - ``synonyms`` — for each ``field:value`` equality predicate, find
    data-similar attribute values
    (:func:`repro.ambiguity.synonyms.similar_values`) and widen the
    predicate to match them too.

* ``facets=`` — value-count facets over the distinct result rows,
  either auto (every non-key column of every table in the results) or
  an explicit list of ``table.column`` attributes; numeric attributes
  get equi-width range buckets.
* ``highlight=`` — a query-biased snippet per result: the row with the
  most matched query terms, matched tokens wrapped in ``**..**``.

The pipeline works against either engine
(:class:`~repro.core.engine.KeywordSearchEngine` or its sharded
subclass): it needs the canonical parse, ``db`` and ``search``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import ResultSet
from repro.index.text import tokenize
from repro.resilience.errors import QueryParseError

from .compiler import _as_float, resolve_field
from .parser import StructuredQuery

KNOWN_EXPANSIONS = ("spelling", "synonyms")

#: Auto-facet cap: at most this many facet attributes, each with at
#: most ``facet_limit`` entries.
MAX_FACET_ATTRIBUTES = 8


@dataclass
class QueryResponse:
    """Everything one query produced, JSON-ready.

    ``to_dict`` embeds the executed canonical query alongside the
    :class:`ResultSet` payload, so HTTP clients and ``search --json``
    consumers see exactly what ran (including expansion rewrites).
    """

    query: StructuredQuery
    results: ResultSet
    rewrites: List[Dict[str, Any]] = field(default_factory=list)
    facets: Optional[Dict[str, List[Dict[str, Any]]]] = None
    highlights: Optional[List[Dict[str, Any]]] = None

    def to_dict(self, include_rows: bool = False) -> Dict[str, Any]:
        payload = self.results.to_dict(include_rows=include_rows)
        payload["query"] = self.query.to_dict()
        if self.rewrites:
            payload["rewrites"] = self.rewrites
        if self.facets is not None:
            payload["facets"] = self.facets
        if self.highlights is not None:
            payload["highlights"] = self.highlights
        return payload


def parse_expand(expand) -> Tuple[str, ...]:
    """Normalise the ``expand=`` knob to a tuple of known names."""
    if expand is None or expand == "" or expand is False:
        return ()
    if expand is True:
        return KNOWN_EXPANSIONS
    if isinstance(expand, str):
        names = [part.strip().lower() for part in expand.split(",") if part.strip()]
    else:
        names = [str(part).strip().lower() for part in expand]
    for name in names:
        if name not in KNOWN_EXPANSIONS:
            raise QueryParseError(
                f"unknown expansion {name!r} "
                f"(choices: {', '.join(KNOWN_EXPANSIONS)})"
            )
    return tuple(dict.fromkeys(names))


# ----------------------------------------------------------------------
# Expansion rewrites
# ----------------------------------------------------------------------
def _expand_synonyms(engine, query: StructuredQuery, limit: int = 3):
    """Widen eq field predicates with data-similar attribute values."""
    from repro.ambiguity.synonyms import similar_values

    rewrites: List[Dict[str, Any]] = []
    new_predicates = []
    changed = False
    for predicate in query.predicates:
        if predicate.op != "eq" or predicate.negated or predicate.alternatives:
            new_predicates.append(predicate)
            continue
        alternatives: List[str] = []
        for table, column in resolve_field(engine.db, predicate.field):
            if column is None:
                continue
            features = [
                c
                for c in engine.db.table(table).schema.text_columns
                if c != column
            ]
            if not features:
                continue
            try:
                similar = similar_values(
                    engine.db, table, column, predicate.value, features, k=limit
                )
            except (KeyError, ValueError):
                continue
            alternatives.extend(
                value.lower() for value, score in similar if score > 0.0
            )
        alternatives = list(dict.fromkeys(alternatives))[:limit]
        if alternatives:
            changed = True
            widened = replace(predicate, alternatives=tuple(alternatives))
            new_predicates.append(widened)
            rewrites.append(
                {
                    "kind": "synonym",
                    "field": predicate.field,
                    "value": predicate.value,
                    "alternatives": alternatives,
                }
            )
        else:
            new_predicates.append(predicate)
    if changed:
        query = replace(query, predicates=tuple(new_predicates))
    return query, rewrites


# ----------------------------------------------------------------------
# Facets
# ----------------------------------------------------------------------
def _distinct_result_rows(results) -> List:
    rows = []
    seen = set()
    for result in results:
        joined = getattr(result, "joined", None)
        if joined is None:
            continue
        for row in joined.distinct_rows():
            key = (row.table.name, row.rowid)
            if key not in seen:
                seen.add(key)
                rows.append(row)
    return rows


def _facet_attributes(rows, spec) -> List[Tuple[str, str]]:
    """Resolve the facet spec to ``(table, column)`` pairs."""
    if spec is not None and spec is not True:
        if isinstance(spec, str):
            parts = [p.strip() for p in spec.split(",") if p.strip()]
        else:
            parts = [str(p).strip() for p in spec]
        out = []
        for part in parts:
            if "." not in part:
                raise QueryParseError(
                    f"facet attribute {part!r} must be table.column"
                )
            table, column = part.split(".", 1)
            out.append((table, column))
        return out
    tables: Dict[str, Any] = {}
    for row in rows:
        tables.setdefault(row.table.name, row.table)
    out = []
    for name in sorted(tables):
        table = tables[name]
        schema = table.schema
        keys = {schema.primary_key}
        keys.update(fk.column for fk in getattr(schema, "foreign_keys", ()))
        for column in schema.column_names:
            if column in keys:
                continue
            out.append((name, column))
            if len(out) >= MAX_FACET_ATTRIBUTES:
                return out
    return out


def build_facets(
    results, spec=True, limit: int = 5, buckets: int = 3
) -> Dict[str, List[Dict[str, Any]]]:
    """Value-count facets over the distinct rows of a result set.

    Numeric attributes get *buckets* equi-width ``lo..hi`` ranges;
    categorical ones the top-*limit* values by count (ties broken by
    value).  Keyed ``table.column``; attributes with no values in the
    results are omitted.
    """
    rows = _distinct_result_rows(results)
    facets: Dict[str, List[Dict[str, Any]]] = {}
    for table, column in _facet_attributes(rows, spec):
        values = [
            row.get(column)
            for row in rows
            if row.table.name == table and row.get(column) is not None
        ]
        if not values:
            continue
        numbers = [_as_float(v) for v in values]
        entries: List[Dict[str, Any]]
        if all(n is not None for n in numbers):
            lo, hi = min(numbers), max(numbers)
            if lo == hi:
                entries = [
                    {"value": f"{lo:g}", "count": len(numbers), "lo": lo, "hi": hi}
                ]
            else:
                width = (hi - lo) / buckets
                entries = []
                for i in range(buckets):
                    b_lo = lo + i * width
                    b_hi = hi if i == buckets - 1 else lo + (i + 1) * width
                    count = sum(
                        1
                        for n in numbers
                        if b_lo <= n < b_hi or (i == buckets - 1 and n == b_hi)
                    )
                    if count:
                        entries.append(
                            {
                                "value": f"{b_lo:g}..{b_hi:g}",
                                "count": count,
                                "lo": b_lo,
                                "hi": b_hi,
                            }
                        )
        else:
            counts: Dict[str, int] = {}
            for value in values:
                text = str(value)
                counts[text] = counts.get(text, 0) + 1
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
            entries = [{"value": value, "count": count} for value, count in top]
        facets[f"{table}.{column}"] = entries
    return facets


# ----------------------------------------------------------------------
# Highlighting
# ----------------------------------------------------------------------
def _query_terms(query: StructuredQuery) -> List[str]:
    terms = [t.token for g in query.groups for t in g]
    for phrase in query.phrases:
        terms.extend(phrase.tokens)
    return list(dict.fromkeys(terms))


def highlight_snippet(
    text: str, terms: Sequence[str], window: int = 12, mark: str = "**"
) -> Tuple[str, int]:
    """Query-biased snippet of *text*: ``(snippet, matches)``.

    Picks the contiguous *window*-token span with the most query-term
    hits (earliest on ties) and wraps every matched token in *mark*.
    """
    tokens = text.split()
    lowered = [tokenize(tok) for tok in tokens]
    term_set = set(terms)
    hits = [
        1 if any(part in term_set for part in parts) else 0
        for parts in lowered
    ]
    if len(tokens) <= window:
        start, end = 0, len(tokens)
    else:
        best_start, best_score = 0, -1
        score = sum(hits[:window])
        best_score, best_start = score, 0
        for start in range(1, len(tokens) - window + 1):
            score += hits[start + window - 1] - hits[start - 1]
            if score > best_score:
                best_score, best_start = score, start
        start, end = best_start, best_start + window
    out = []
    matches = 0
    for i in range(start, end):
        if hits[i]:
            matches += 1
            out.append(f"{mark}{tokens[i]}{mark}")
        else:
            out.append(tokens[i])
    snippet = " ".join(out)
    if start > 0:
        snippet = "… " + snippet
    if end < len(tokens):
        snippet += " …"
    return snippet, matches


def build_highlights(
    results, query: StructuredQuery, window: int = 12
) -> List[Dict[str, Any]]:
    """One query-biased snippet per result (aligned by index)."""
    terms = _query_terms(query)
    out: List[Dict[str, Any]] = []
    for result in results:
        joined = getattr(result, "joined", None)
        if joined is None:
            out.append({"row": None, "snippet": "", "matches": 0})
            continue
        best: Optional[Dict[str, Any]] = None
        for row in joined.distinct_rows():
            text = row.text()
            if not text:
                continue
            snippet, matches = highlight_snippet(text, terms, window=window)
            entry = {
                "row": f"{row.table.name}:{row.rowid}",
                "snippet": snippet,
                "matches": matches,
            }
            if best is None or matches > best["matches"]:
                best = entry
        out.append(best or {"row": None, "snippet": "", "matches": 0})
    return out


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
def execute_pipeline(
    engine,
    text: str,
    k: int = 10,
    method: str = "schema",
    expand=None,
    facets=None,
    highlight: bool = False,
    facet_limit: int = 5,
    **search_kwargs,
) -> QueryResponse:
    """Parse → expand → search → facets/highlights, as one response.

    With every knob off this is exactly ``engine.search(text, ...)``
    plus the parsed query echo.
    """
    query: StructuredQuery = engine._parse_canonical(text)
    knobs = parse_expand(expand)
    rewrites: List[Dict[str, Any]] = []
    if "spelling" in knobs and query.cleaned_from is not None:
        rewrites.append(
            {
                "kind": "spelling",
                "from": " ".join(query.cleaned_from),
                "to": " ".join(query.bare_keywords()),
            }
        )
    if "synonyms" in knobs:
        query, syn_rewrites = _expand_synonyms(engine, query)
        rewrites.extend(syn_rewrites)
    results = engine.search(query, k=k, method=method, **search_kwargs)
    facet_payload = None
    if facets:
        facet_payload = build_facets(results, spec=facets, limit=facet_limit)
    highlight_payload = None
    if highlight:
        highlight_payload = build_highlights(results, query)
    return QueryResponse(
        query=query,
        results=results,
        rewrites=rewrites,
        facets=facet_payload,
        highlights=highlight_payload,
    )
