"""Command-line interface: ``python -m repro <command> ...``.

Lets a user try every search family against the bundled synthetic
datasets without writing code:

    python -m repro search "john database" --method schema -k 5
    python -m repro search "widom xml" --dataset tiny --method steiner
    python -m repro search "john database" --trace
    python -m repro batch "john database" "widom xml" "john database" --stats
    python -m repro batch --file queries.txt --method banks
    python -m repro xml "keyword mark" --semantics elca --snippets
    python -m repro suggest "dat"
    python -m repro metrics "john database" "widom xml" --method banks
    python -m repro facets --dataset events
    python -m repro datasets
    python -m repro snapshot --dataset tiny --dir /tmp/durable
    python -m repro recover --dir /tmp/durable --query "john xml"
    python -m repro fsck --dir /tmp/durable
    python -m repro search "john database" --json
    python -m repro serve --dataset biblio --port 8080

``serve``, ``batch`` and ``recover`` drain cleanly on SIGTERM or
Ctrl-C and exit 130 (the conventional interrupted-by-signal code).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.factory import DEFAULT_PARTITIONER, build_engine
from repro.obs.trace import format_trace
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError

DATASETS: Dict[str, Callable] = {}
XML_CORPORA: Dict[str, Callable] = {}


def _generator(module: str, name: str, **kwargs) -> Callable:
    """A factory that imports ``repro.datasets.<module>`` only when the
    dataset is picked, so a command loads the one generator it uses."""

    def factory():
        generate = getattr(importlib.import_module(f"repro.datasets.{module}"), name)
        return generate(**kwargs)

    return factory


def _register_datasets() -> None:
    DATASETS.update(
        {
            "biblio": _generator("bibliographic", "generate_bibliographic_db", seed=7),
            "tiny": _generator("bibliographic", "tiny_bibliographic_db"),
            "movies": _generator("movies", "generate_movie_db", seed=11),
            "products": _generator("products", "generate_product_db", seed=13),
            "events": _generator("events", "generate_events_db", seed=17),
            "events-slide": _generator("events", "tutorial_events_db"),
        }
    )
    XML_CORPORA.update(
        {
            "bib": _generator("xml_corpora", "generate_bib_xml", seed=31),
            "auctions": _generator("xml_corpora", "generate_auctions_xml", seed=37),
            "conf-slide": _generator("xml_corpora", "slide_conf_tree"),
            "auctions-slide": _generator("xml_corpora", "slide_auction_tree"),
        }
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    print("relational datasets:", ", ".join(sorted(DATASETS)))
    print("xml corpora:       ", ", ".join(sorted(XML_CORPORA)))
    return 0


def _engine_options(args: argparse.Namespace) -> Dict[str, object]:
    """``build_engine`` keyword arguments from the shard/backend flags
    (commands without those flags get the defaults)."""
    backend = getattr(args, "backend", "dict")
    options = {}
    storage_dir = getattr(args, "storage_dir", None)
    if backend == "disk" and storage_dir:
        os.makedirs(storage_dir, exist_ok=True)
        options["path"] = os.path.join(storage_dir, "index.rkws")
    cache_pages = getattr(args, "page_cache", None)
    if backend == "disk" and cache_pages:
        options["cache_pages"] = cache_pages
    return {
        "shards": getattr(args, "shards", 1),
        "partitioner": getattr(args, "partitioner", DEFAULT_PARTITIONER),
        "backend": backend,
        "backend_options": options or None,
    }


def _print_results(results, highlights=None) -> None:
    """The ranked answers, one per rank (or ``no results``)."""
    if not results:
        print("no results")
    for rank, result in enumerate(results, start=1):
        print(f"{rank:2d}. [{result.score:.3f}] {result.network}")
        print(f"      {result.describe()}")
        if highlights is not None and rank - 1 < len(highlights):
            snippet = highlights[rank - 1].get("snippet")
            if snippet:
                print(f"      » {snippet}")


def _add_shard_flags(p) -> None:
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the dataset across N shards (scatter-gather)",
    )
    p.add_argument(
        "--partitioner",
        default=DEFAULT_PARTITIONER,
        choices=["hash", "affinity"],
        help="shard assignment strategy (with --shards > 1)",
    )
    _add_backend_flags(p)


def _add_backend_flags(p) -> None:
    p.add_argument(
        "--backend",
        default="dict",
        choices=["dict", "columnar", "disk"],
        help="inverted-index storage backend (see repro.storage)",
    )
    p.add_argument(
        "--storage-dir",
        default=None,
        help=(
            "with --backend disk: directory for the persistent index "
            "segment (reused on restart when the data still matches); "
            "omitted = ephemeral temp segment"
        ),
    )
    p.add_argument(
        "--page-cache",
        type=int,
        default=None,
        help="with --backend disk: LRU page-cache capacity in pages",
    )


def _cmd_search(args: argparse.Namespace) -> int:
    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    engine = build_engine(factory(), **_engine_options(args))
    from repro.query.pipeline import execute_pipeline

    try:
        query = engine._parse_canonical(args.query)
    except QueryParseError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        # Human-readable echo only: --json must emit nothing but JSON.
        if query.cleaned_from is not None:
            print(f"(query cleaned to: {' '.join(query.bare_keywords())})")
        if not query.is_bare:
            print(f"(parsed as: {query.canonical()})")
    response = None
    try:
        if args.expand or args.facets or args.highlight:
            response = execute_pipeline(
                engine,
                args.query,
                k=args.k,
                method=args.method,
                expand=args.expand,
                facets=args.facets,
                highlight=args.highlight,
                timeout_ms=args.timeout_ms,
                max_expansions=args.max_expansions,
                fallback=args.fallback,
                trace=args.trace or None,
            )
            results = response.results
        else:
            results = engine.search(
                args.query,
                k=args.k,
                method=args.method,
                timeout_ms=args.timeout_ms,
                max_expansions=args.max_expansions,
                fallback=args.fallback,
                trace=args.trace or None,
            )
    except QueryParseError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = (
            response.to_dict(include_rows=args.rows)
            if response is not None
            else results.to_dict(include_rows=args.rows)
        )
        print(json.dumps(payload, indent=2))
        return 0
    _print_degraded_banner(results)
    if response is not None:
        for rewrite in response.rewrites:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in rewrite.items()
                if key != "kind"
            )
            print(f"(rewrite {rewrite['kind']}: {detail})")
    _print_results(
        results, response.highlights if response is not None else None
    )
    if response is not None and response.facets:
        print("-- facets:")
        for attribute, entries in response.facets.items():
            rendered = ", ".join(
                f"{entry['value']} ({entry['count']})" for entry in entries
            )
            print(f"   {attribute}: {rendered}")
    if args.explain:
        from repro.sharding import ShardedSearchEngine

        if isinstance(engine, ShardedSearchEngine):
            stats = engine.shard_stats()
            print(
                f"-- shards: {stats['shards']} ({stats['partitioner']}), "
                f"balance {stats['balance']:.2f}, "
                f"{stats['cut_edges']}/{stats['total_edges']} FK edges cut"
            )
        _print_explain(engine)
    if args.trace and results.trace is not None:
        print("-- trace:")
        print(format_trace(results.trace))
    return 0


def _print_explain(engine) -> None:
    """CN-executor work and incremental-maintenance counters."""
    stats = engine.cache_stats()
    sharing = stats["sharing"]
    patches = stats["substrates"]["patches"]
    retired = engine.metrics.snapshot()["executor.retired"]
    print(
        f"-- executor: {sharing['joins_executed']} index probes, "
        f"{sharing['tuples_read']} tuples read, "
        f"{sharing['partials_dropped']} partials dropped by the bound, "
        f"{retired} cursors retired at a tie"
    )
    print(
        f"-- incremental: {patches['applied']} index patches applied "
        f"({patches['index_rows']} rows, "
        f"{patches['cn_memos_dropped']} CN memos dropped)"
    )


def _print_degraded_banner(results) -> None:
    """One-line label for partial / fallback answers."""
    if not getattr(results, "degraded", False):
        return
    parts = [f"degraded: {results.degraded_reason or 'budget exhausted'}"]
    if getattr(results, "fallback_from", None):
        parts.append(f"fell back to {results.method}")
    print(f"({'; '.join(parts)})")


def _cmd_batch(args: argparse.Namespace) -> int:
    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    queries: List[str] = list(args.queries)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                queries.extend(
                    line.strip() for line in handle if line.strip()
                )
        except OSError as exc:
            print(f"cannot read {args.file!r}: {exc}", file=sys.stderr)
            return 2
    if not queries:
        print("no queries given (positional args or --file)", file=sys.stderr)
        return 2
    engine = build_engine(factory(), **_engine_options(args))
    try:
        outcomes = engine.search_many(
            queries,
            k=args.k,
            method=args.method,
            timeout_ms=args.timeout_ms,
            max_expansions=args.max_expansions,
            fallback=args.fallback,
            detailed=True,
        )
    except QueryParseError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for query, outcome in zip(queries, outcomes):
        results = outcome.results
        if outcome.status == "error":
            failures += 1
            err = outcome.error
            print(f"== {query!r} ERROR {type(err).__name__}: {err}")
            continue
        print(f"== {query!r} ({len(results)} results)")
        _print_degraded_banner(results)
        _print_results(results)
    if args.stats:
        stats = engine.cache_stats()
        results_stats = stats["results"]
        substrates = stats["substrates"]
        print(
            f"-- result cache: {results_stats['hits']} hits / "
            f"{results_stats['misses']} misses "
            f"(hit rate {results_stats['hit_rate']:.0%}), "
            f"{results_stats['evictions']} evictions"
        )
        print(f"-- substrate builds: {substrates['builds']}")
    return 1 if failures else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run queries against one engine, then dump its metrics snapshot."""
    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    engine = build_engine(factory(), **_engine_options(args))
    for query in args.queries:
        try:
            engine.search(query, k=args.k, method=args.method)
        except QueryParseError as exc:
            print(f"bad request {query!r}: {exc}", file=sys.stderr)
            return 2
        if args.repeat > 1:
            for _ in range(args.repeat - 1):
                engine.search(query, k=args.k, method=args.method)
    payload = engine.metrics.snapshot()
    violations = None
    if args.check_fk:
        violations = engine.db.validate()
        payload["fk_violations"] = violations
    print(json.dumps(payload, indent=2, sort_keys=True))
    if violations:
        print(
            f"{len(violations)} referential-integrity violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Bootstrap (or reopen) a durability directory and checkpoint it."""
    from repro.durability import DurableEngine

    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    engine = DurableEngine(
        build_engine(factory(), **_engine_options(args)),
        args.dir,
        fsync=args.fsync,
    )
    info = engine.snapshot()
    wal = engine.wal.stats()
    print(
        f"snapshot committed: lsn={info.lsn}, {info.rows} rows, "
        f"sha256={info.sha256[:12]}…"
    )
    print(
        f"wal: {wal['segments']} segment(s), last lsn {wal['last_lsn']}, "
        f"{wal['bytes']} bytes, fsync={wal['fsync_policy']}"
    )
    engine.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover an engine from a durability directory."""
    from repro.durability import DurableEngine, RecoveryError

    try:
        engine, result = DurableEngine.recover(
            args.dir, trace=True, **_engine_options(args)
        )
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(f"recovered: {result.summary()} ({result.elapsed_ms:.1f} ms)")
    if args.trace and result.trace is not None:
        print(format_trace(result.trace))
    if args.query:
        results = engine.search(args.query, k=args.k, method=args.method)
        _print_degraded_banner(results)
        _print_results(results)
    engine.close()
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Verify derived state; recovers from --dir or builds from --dataset."""
    from repro.durability import DurableEngine, RecoveryError, fsck

    if args.dir:
        try:
            engine, result = DurableEngine.recover(
                args.dir, **_engine_options(args)
            )
        except RecoveryError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 1
        print(f"recovered: {result.summary()}")
        report = engine.fsck()
        engine.close()
    else:
        factory = DATASETS.get(args.dataset)
        if factory is None:
            print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
            return 2
        report = fsck(build_engine(factory(), **_engine_options(args)))
    print(report.summary())
    for problem in report.problems:
        print(f"  ! {problem}")
    return 0 if report.ok else 1


def _cmd_suggest(args: argparse.Namespace) -> int:
    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    from repro.ambiguity.autocomplete import suggest

    engine = build_engine(factory(), **_engine_options(args))
    completions = suggest(engine, args.prefix, limit=args.k)
    print(", ".join(completions) if completions else "(no completions)")
    return 0


def _cmd_xml(args: argparse.Namespace) -> int:
    from repro.core.xml_engine import XmlSearchEngine

    factory = XML_CORPORA.get(args.corpus)
    if factory is None:
        print(f"unknown corpus {args.corpus!r}", file=sys.stderr)
        return 2
    engine = XmlSearchEngine(factory())
    results = engine.search(
        args.query,
        k=args.k,
        semantics=args.semantics,
        trace=args.trace or None,
    )
    if not results:
        print("no results")
    for rank, result in enumerate(results, start=1):
        print(f"{rank:2d}. [{result.score:.3f}] {result.describe()}")
        if args.snippets:
            from repro.analysis.snippets import snippet_text

            items = engine.snippet(result, args.query)
            print(f"      snippet: {snippet_text(items)}")
    if args.trace and results.trace is not None:
        print("-- trace:")
        print(format_trace(results.trace))
    return 0


def _cmd_facets(args: argparse.Namespace) -> int:
    factory = DATASETS.get(args.dataset)
    if factory is None:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    db = factory()
    table = args.table or next(iter(db.tables))
    from repro.analysis.facets import (
        NavigationModel,
        build_navigation_tree,
        navigation_cost,
    )
    from repro.datasets.logs import generate_query_log

    rows = list(db.rows(table))
    schema = db.table(table).schema
    attributes = [
        c.name for c in schema.columns if c.name != schema.primary_key
    ][:4]
    log = generate_query_log(db, table, n_queries=100, attributes=attributes)
    model = NavigationModel(log)
    tree = build_navigation_tree(rows, attributes, model)
    print(
        f"table {table!r}: {len(rows)} rows, expected navigation cost "
        f"{navigation_cost(tree, model):.1f} (flat list: {len(rows)})"
    )

    def show(node, indent=0):
        for child in node.children:
            attr, value = child.condition
            print("  " * (indent + 1) + f"{attr}={value} ({child.size()})")
            show(child, indent + 1)

    show(tree)
    return 0


def _build_server(args: argparse.Namespace):
    """The ``ServingServer`` for ``repro serve``, or an exit code.

    A populated ``--dir`` restarts through
    :func:`~repro.durability.recover_engine`: the server wraps the
    recovered *plain* engine in the one
    :class:`~repro.durability.DurableEngine` that owns the directory's
    WAL (``DurableEngine.recover`` would hand back a second one).
    Every engine generation — booted, recovered or swapped in — reports
    into the server's one :class:`MetricsRegistry`, the one ``/metrics``
    reads.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.server import ServingServer

    metrics = MetricsRegistry()
    options = dict(_engine_options(args), metrics=metrics)
    durable_dir = args.dir
    engine = None
    if durable_dir is not None:
        from repro.durability import RecoveryError, recover_engine

        if os.path.exists(os.path.join(durable_dir, "MANIFEST")) or (
            os.path.isdir(durable_dir) and os.listdir(durable_dir)
        ):
            try:
                engine, result = recover_engine(durable_dir, **options)
            except RecoveryError as exc:
                print(f"recovery failed: {exc}", file=sys.stderr)
                return 1
            print(f"recovered: {result.summary()}")
    if engine is None:
        factory = DATASETS.get(args.dataset)
        if factory is None:
            print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
            return 2
        engine = build_engine(factory(), **options)

    return ServingServer(
        engine,
        host=args.host,
        port=args.port,
        max_concurrency=args.workers,
        max_queue_depth=args.queue_depth,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        target_latency_ms=args.target_latency_ms,
        default_timeout_ms=args.timeout_ms or 2000.0,
        drain_timeout_s=args.drain_timeout_s,
        durable_dir=durable_dir,
        engine_builder=lambda live_db: build_engine(live_db, **options),
        metrics=metrics,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the overload-safe HTTP serving front end."""
    server = _build_server(args)
    if isinstance(server, int):
        return server
    try:
        return server.run()
    except KeyboardInterrupt:
        drained = server.stop(timeout_s=args.drain_timeout_s)
        print(
            "interrupted: "
            + ("drained cleanly" if drained else "drain timed out"),
            file=sys.stderr,
        )
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Keyword search and exploration on databases "
        "(ICDE 2011 tutorial reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list bundled datasets")
    p.set_defaults(func=_cmd_datasets)

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--timeout-ms",
            type=float,
            default=None,
            help="per-query deadline; exhaustion returns partial "
            "results labeled degraded",
        )
        p.add_argument(
            "--max-expansions",
            type=int,
            default=None,
            help="per-query work cap (node expansions / CNs / candidates)",
        )
        p.add_argument(
            "--fallback",
            action="store_true",
            help="descend the degradation ladder (e.g. steiner -> banks "
            "-> index_only) when the budget exhausts with no results",
        )

    p = sub.add_parser("search", help="relational keyword search")
    p.add_argument("query")
    p.add_argument("--dataset", default="biblio", help="dataset name")
    p.add_argument("--method", default="schema", choices=list(KNOWN_METHODS))
    p.add_argument("-k", type=int, default=5)
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the CN executor's work counters (index probes, "
        "tuples read, partials dropped by the bound, cursors retired at "
        "a tie) and incremental "
        "index patches",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the query's span tree (stage timings and work "
        "counters) after the results",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the result set as JSON (same schema as the HTTP API)",
    )
    p.add_argument(
        "--rows",
        action="store_true",
        help="with --json, inline each tuple's column values",
    )
    p.add_argument(
        "--expand",
        default=None,
        metavar="KNOBS",
        help="query expansion knobs, comma-separated: spelling, "
        "synonyms (reported as rewrites)",
    )
    p.add_argument(
        "--facets",
        nargs="?",
        const=True,
        default=None,
        metavar="ATTRS",
        help="facet the results: bare flag = auto over result tables, "
        "or an explicit table.column,... list",
    )
    p.add_argument(
        "--highlight",
        action="store_true",
        help="print a query-biased snippet under each result",
    )
    add_resilience_flags(p)
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "batch", help="batch keyword search (duplicate queries computed once)"
    )
    p.add_argument("queries", nargs="*", help="query strings")
    p.add_argument("--file", default=None, help="file with one query per line")
    p.add_argument("--dataset", default="biblio", help="dataset name")
    p.add_argument("--method", default="schema", choices=list(KNOWN_METHODS))
    p.add_argument("-k", type=int, default=5)
    p.add_argument(
        "--stats", action="store_true", help="print cache statistics after the batch"
    )
    add_resilience_flags(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "metrics",
        help="run queries and print the engine's metrics snapshot as JSON",
    )
    p.add_argument("queries", nargs="+", help="query strings")
    p.add_argument("--dataset", default="biblio", help="dataset name")
    p.add_argument("--method", default="schema", choices=list(KNOWN_METHODS))
    p.add_argument("-k", type=int, default=5)
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run each query N times (exercises the result cache)",
    )
    p.add_argument(
        "--check-fk",
        action="store_true",
        help="run Database.validate() and include any referential-"
        "integrity violations in the output (exit 1 if found)",
    )
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "snapshot",
        help="bootstrap a durability directory and commit a snapshot",
    )
    p.add_argument("--dataset", default="biblio", help="dataset name")
    p.add_argument("--dir", required=True, help="durability root directory")
    p.add_argument(
        "--fsync",
        default="always",
        choices=["always", "interval", "never"],
        help="WAL fsync policy for the session",
    )
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser(
        "recover",
        help="recover an engine from a durability directory (snapshot + "
        "WAL replay)",
    )
    p.add_argument("--dir", required=True, help="durability root directory")
    p.add_argument("--query", default=None, help="run one query after recovery")
    p.add_argument("--method", default="schema", choices=list(KNOWN_METHODS))
    p.add_argument("-k", type=int, default=5)
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the recovery span tree (snapshot_load/replay/refresh)",
    )
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "fsck",
        help="verify index postings, cache stamps, FK integrity and shard "
        "ownership",
    )
    p.add_argument(
        "--dir", default=None, help="durability root to recover and check"
    )
    p.add_argument(
        "--dataset", default="biblio", help="dataset to check (without --dir)"
    )
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "serve",
        help="run the HTTP serving front end (admission control, load "
        "shedding, zero-downtime swaps)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument("--dataset", default="biblio", help="dataset name")
    p.add_argument(
        "--dir",
        default=None,
        help="durability root; recovered on boot if populated, and "
        "mutations are WAL-logged",
    )
    p.add_argument(
        "--workers", type=int, default=8, help="query worker threads"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="bounded admission queue size (past it: 429 + Retry-After)",
    )
    p.add_argument("--tenant-rate", type=float, default=500.0)
    p.add_argument("--tenant-burst", type=float, default=1000.0)
    p.add_argument(
        "--target-latency-ms",
        type=float,
        default=250.0,
        help="latency target feeding the shedding ladder",
    )
    p.add_argument(
        "--timeout-ms",
        type=float,
        default=2000.0,
        help="default per-request deadline",
    )
    p.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        help="graceful-shutdown drain deadline (SIGTERM / Ctrl-C)",
    )
    _add_shard_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("suggest", help="type-ahead completions")
    p.add_argument("prefix")
    p.add_argument("--dataset", default="biblio")
    p.add_argument("-k", type=int, default=8)
    p.set_defaults(func=_cmd_suggest)

    p = sub.add_parser("xml", help="XML keyword search")
    p.add_argument("query")
    p.add_argument("--corpus", default="bib")
    p.add_argument(
        "--semantics", default="slca", choices=["slca", "multiway", "elca"]
    )
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--snippets", action="store_true")
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the query's span tree after the results",
    )
    p.set_defaults(func=_cmd_xml)

    p = sub.add_parser("facets", help="faceted navigation tree")
    p.add_argument("--dataset", default="events")
    p.add_argument("--table", default=None)
    p.set_defaults(func=_cmd_facets)

    return parser


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: Optional[Sequence[str]] = None) -> int:
    _register_datasets()
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM behaves like Ctrl-C: long-running commands (batch, recover,
    # serve) unwind through their finally blocks instead of dying
    # mid-write, and the process exits with the conventional 130.
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):  # non-main thread / unsupported platform
        previous = None
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):
                pass


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
