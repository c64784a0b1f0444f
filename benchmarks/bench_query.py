"""E24 — structured query front end: overhead, pushdown, parity.

Claims (ISSUE 10: unified structured query front end — fielded DSL,
expansion, facets, highlighting — plus the cache-key sweep):

1. **Parse+compile overhead.**  Bare keyword queries pass through the
   DSL parser and canonicaliser before they execute.  The acceptance
   gate caps the *added* per-query
   parse cost (DSL parse minus the legacy tokenize-only parse) at 5%
   of the bare query's uncached execution time.
2. **Predicate pushdown.**  A fielded query (``year:<lo>..<hi> kw``)
   filters tuple sets *before* CN enumeration — fewer rows into the
   same executor — so it must beat the post-hoc alternative a caller
   would otherwise need for a correct top-k: over-fetch the bare query
   and discard results with out-of-range rows.  The gate requires
   ``speedup_vs_posthoc > 1`` and the structured run to return
   exclusively in-range rows and at least one result.
3. **Parity.**  Bare queries remain byte-identical across the front
   end: every method's top-k via ``search(text)`` must equal
   ``search(parse_query(text))``, cached must equal uncached under
   the structured cache key, and sharded
   execution must equal the single engine's answer exactly — scores,
   networks and tuple ids, ties at the k boundary included.  Zero
   divergences allowed.

Runnable under pytest or as a script emitting ``BENCH_query.json``:

    PYTHONPATH=src python benchmarks/bench_query.py [--smoke] \
        [--out BENCH_query.json]
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.engine import KeywordSearchEngine
from repro.core.query import Query
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.index.text import tokenize
from repro.query import parse_query
from repro.sharding import ShardedSearchEngine

#: Bare workload: crosses the cheap method families so the parity gate
#: and the overhead measurement see more than one execution path.
BARE_WORKLOAD: List[Tuple[str, str]] = [
    ("john xml", "schema"),
    ("widom xml", "schema"),
    ("database keyword", "schema"),
    ("xml keyword", "index_only"),
    ("john conference", "index_only"),
    ("john sigmod", "banks"),
]

METHODS = [
    "schema",
    "banks",
    "banks2",
    "steiner",
    "distinct_root",
    "ease",
    "index_only",
]


def _signature(results) -> bytes:
    payload = [
        [repr(r.score), r.network, [str(t) for t in r.tuple_ids()]]
        for r in results
    ]
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_parse_overhead(db, repeats: int) -> Dict[str, object]:
    """Per-query DSL parse cost relative to bare uncached execution.

    Bare queries pay the DSL lexer + CNF normaliser once per distinct
    text (the canonical parse is memoised afterwards), so the honest
    overhead figure is the fresh parse cost against what executing the
    same bare query actually costs.  The legacy tokenize-only parse is
    timed too so the *added* cost — DSL parse minus what the old front
    end already spent — is what the 5% gate judges.
    """
    engine = KeywordSearchEngine(db)
    n = len(BARE_WORKLOAD)

    def run_uncached():
        for query, method in BARE_WORKLOAD:
            engine.search(query, k=10, method=method, use_cache=False)

    exec_us = _median_seconds(run_uncached, repeats) / n * 1e6
    parse_us = (
        _median_seconds(
            lambda: [parse_query(q) for q, _ in BARE_WORKLOAD], repeats
        )
        / n
        * 1e6
    )
    legacy_us = (
        _median_seconds(
            lambda: [
                Query(raw=q, keywords=tuple(tokenize(q)))
                for q, _ in BARE_WORKLOAD
            ],
            repeats,
        )
        / n
        * 1e6
    )
    added_us = max(parse_us - legacy_us, 0.0)
    return {
        "uncached_exec_us_per_query": round(exec_us, 2),
        "dsl_parse_us_per_query": round(parse_us, 2),
        "legacy_parse_us_per_query": round(legacy_us, 2),
        "overhead_pct": round(added_us / exec_us * 100, 3) if exec_us else 0.0,
    }


def measure_pushdown(db, repeats: int) -> Dict[str, object]:
    """Fielded filter before CN enumeration vs post-hoc row discard.

    The post-hoc baseline is what a caller without predicate pushdown
    must do for a *correct* top-k: over-fetch (4x k here), discard
    results whose conference rows fall outside the range, keep k.
    Pushdown instead filters the conference tuple sets before CN
    enumeration, so the join never materialises out-of-range rows.
    """
    engine = KeywordSearchEngine(db)
    conferences = list(db.table("conference").rows())
    years = sorted({r.get("year") for r in conferences})
    lo, hi = years[0], years[len(years) // 4]
    # Join-heavy workload: the conference keyword matches several
    # conference rows, the title keyword many papers; CNs join the two.
    # The keyword must match conferences on *both* sides of the range,
    # or the predicate has nothing to push down (the executor would see
    # the same rows either way): take the name or location with the
    # most such rows.  Without one (tiny datasets) fall back to the
    # modal in-range location, which at least keeps the query non-empty.
    inside: Dict[str, int] = {}
    outside: Dict[str, int] = {}
    for row in conferences:
        side = inside if lo <= row.get("year") <= hi else outside
        for term in (row.get("name"), row.get("location")):
            side[term] = side.get(term, 0) + 1
    straddling = sorted(
        (t for t in inside if t in outside),
        key=lambda t: (-(inside[t] + outside[t]), t),
    )
    term = straddling[0] if straddling else max(sorted(inside), key=inside.get)
    bare_text = f"{term} database"
    structured_text = f"year:{lo}..{hi} {bare_text}"
    k = 10

    def in_range(row) -> bool:
        return row.table.name != "conference" or lo <= row.get("year") <= hi

    def run_structured():
        return engine.search(
            structured_text, k=k, method="schema", use_cache=False
        )

    def run_posthoc():
        results = engine.search(
            bare_text, k=4 * k, method="schema", use_cache=False
        )
        kept = [
            r
            for r in results
            if all(in_range(row) for row in r.joined.distinct_rows())
        ]
        return kept[:k]

    structured_s = _median_seconds(run_structured, repeats)
    posthoc_s = _median_seconds(run_posthoc, repeats)

    structured_rows = [
        row
        for result in run_structured()
        for row in result.joined.distinct_rows()
    ]
    only_in_range = all(in_range(row) for row in structured_rows)
    return {
        "query": structured_text,
        "keyword_straddles_range": bool(straddling),
        "structured_s": round(structured_s, 6),
        "posthoc_s": round(posthoc_s, 6),
        "speedup_vs_posthoc": round(posthoc_s / structured_s, 2)
        if structured_s
        else None,
        "result_rows": len(structured_rows),
        "only_in_range_rows": only_in_range,
    }


def measure_parity(db) -> Dict[str, object]:
    """Byte-level parity: text vs parsed query, cached vs uncached,
    sharded vs single."""
    single = KeywordSearchEngine(db)
    divergences = 0
    checks = 0
    for query_text, _ in BARE_WORKLOAD[:3]:
        for method in METHODS:
            via_front = _signature(
                single.search(query_text, k=10, method=method, use_cache=False)
            )
            via_parsed = _signature(
                single.search(
                    parse_query(query_text), k=10, method=method, use_cache=False
                )
            )
            cached = _signature(single.search(query_text, k=10, method=method))
            checks += 2
            if via_front != via_parsed:
                divergences += 1
            if cached != via_front:
                divergences += 1
    with ShardedSearchEngine(db, n_shards=4) as sharded:
        for query_text, _ in BARE_WORKLOAD[:3]:
            for method in METHODS:
                checks += 1
                if _signature(
                    sharded.search(query_text, k=10, method=method)
                ) != _signature(
                    single.search(query_text, k=10, method=method)
                ):
                    divergences += 1
    return {"checks": checks, "divergences": divergences}


def run_query_benchmark(smoke: bool = False) -> Dict[str, object]:
    if smoke:
        db = generate_bibliographic_db(
            n_authors=30, n_conferences=5, n_papers=100, seed=7
        )
        repeats = 5
    else:
        db = generate_bibliographic_db(
            n_authors=150, n_conferences=12, n_papers=600, seed=7
        )
        repeats = 15

    overhead = measure_parse_overhead(db, repeats)
    pushdown = measure_pushdown(db, repeats)
    parity = measure_parity(db)

    acceptance = {
        "overhead_pct": overhead["overhead_pct"],
        "overhead_pct_max": 5.0,
        "pushdown_only_in_range": bool(
            pushdown["only_in_range_rows"] and pushdown["result_rows"] > 0
        ),
        "pushdown_speedup_vs_posthoc": pushdown["speedup_vs_posthoc"],
        "divergences": parity["divergences"],
    }
    acceptance["pass"] = bool(
        acceptance["overhead_pct"] <= acceptance["overhead_pct_max"]
        and acceptance["pushdown_only_in_range"]
        and (
            pushdown["speedup_vs_posthoc"] > 1.0
            or not pushdown["keyword_straddles_range"]
        )
        and parity["divergences"] == 0
    )

    return {
        "benchmark": "query",
        "smoke": smoke,
        "dataset": {"rows": db.size()},
        "workload": [list(pair) for pair in BARE_WORKLOAD],
        "parse_overhead": overhead,
        "predicate_pushdown": pushdown,
        "parity": parity,
        "acceptance": acceptance,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_query_benchmark_smoke():
    report = run_query_benchmark(smoke=True)
    assert report["parity"]["divergences"] == 0
    assert report["acceptance"]["pushdown_only_in_range"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default="BENCH_query.json")
    args = parser.parse_args(argv)
    report = run_query_benchmark(smoke=args.smoke)
    from datetime import datetime, timezone

    report["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    report["python"] = sys.version.split()[0]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    acceptance = report["acceptance"]
    print(f"wrote {args.out}")
    print(
        f"parse+compile overhead {acceptance['overhead_pct']}% "
        f"(max {acceptance['overhead_pct_max']}%), pushdown speedup "
        f"{report['predicate_pushdown']['speedup_vs_posthoc']}x, "
        f"divergences {acceptance['divergences']}"
    )
    print(f"query acceptance pass: {acceptance['pass']}")
    return 0 if acceptance["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
