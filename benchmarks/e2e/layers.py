"""Library-level probes of the traced run (``child.py probe``).

Runs in its own fresh process.  Two parts, both timed from outside
around public calls and recorded as bench-owned spans:

* **stage replay** — the workload's distinct ``schema`` queries, stage
  by stage on a fresh engine: parse -> tuple_sets -> cn_enumerate ->
  execute -> serialise;
* **config probes** — storage backends, shard counts, the x2 dataset,
  the durability and XML layers, engine tracing overhead — each under
  its own span, on the workload's dataset.

A layer metric is 0 when the layer does no work on the workload.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import KeywordSearchEngine, XmlSearchEngine
from repro.datasets.xml_corpora import generate_bib_xml
from repro.durability import DurableEngine, WriteAheadLog
from repro.index.inverted import InvertedIndex
from repro.query.parser import parse_query
from repro.schema_search import generate_candidate_networks
from repro.sharding import ShardedSearchEngine

from child import K, build_db
from procs import dir_bytes
from spans import SpanLog
from workloads import insert_pairs

#: Fixed probe queries (present in both dataset sizes).
PROBE_QUERIES = (
    "xml keyword", "database query", "stream processing", "xml index",
    "search ranking", "widom xml", "sigmod database", "cloud computing",
)
BACKENDS = ("dict", "columnar", "disk")
XML_QUERIES = 40
TRACE_HITS = 20_000
VOCAB_SAMPLE = 200
MICRO_INSERTS = 100


def _ms(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) * 1000.0, out


class Probes:
    def __init__(self, spec: Dict[str, Any]):
        self.spec = spec
        self.dataset = spec["dataset"]
        self.tmp = spec["tmp"]
        self.smoke = spec["smoke"]
        self.spans = SpanLog()
        self.metrics: Dict[str, float] = {}
        #: per-request library cost, for the attribution check in run.py
        self.stage_sum_ms = 0.0
        #: dict-backend cold probe latency, the base of the ratios
        self.single_cold_ms = 0.0

    def timed(self, name: str, parent: int, fn: Callable[[], Any], **tags: Any) -> Tuple[float, Any]:
        with self.spans.span(name, parent, **tags):
            return _ms(fn)

    # ------------------------------------------------------------------
    # Stage replay
    # ------------------------------------------------------------------
    def stage_replay(self) -> None:
        """Per distinct schema query, each stage once on a fresh engine.

        ``weights`` are the query's request counts in the traced pass.
        Parse and tuple sets are memoised by the engine, so a request
        pays them once per distinct query; CN enumeration, execution
        and serialisation are paid by every ``/search`` request.
        """
        m = self.metrics
        queries: List[str] = self.spec["stage_queries"]
        weights: List[int] = self.spec["stage_weights"]
        stages = ("parse_us", "parse", "tuple_sets", "cn_enumerate", "execute", "serialise")
        if not queries:
            for name in ("query.parse_us", "core.parse_ms", "core.serialise_ms",
                         "schema_search.tuple_sets_ms", "schema_search.cn_enumerate_ms",
                         "schema_search.cns_per_query", "schema_search.execute_ms",
                         "schema_search.execute_share"):
                m[name] = 0.0
            return
        with self.spans.span("stage_replay") as root:
            db = build_db(self.dataset)
            for op in self.spec["pre_inserts"]:  # the state the searches ran on
                db.insert(op[1], **op[2])
            engine = KeywordSearchEngine(db)
            engine.index, engine.cleaner  # one-time builds, reported apart
            cost = {stage: [] for stage in stages}
            cns_count = []
            for pos, text in enumerate(queries):
                with self.spans.span("request", root, request=f"replay-{pos}") as rid:
                    us = min(_ms(lambda: parse_query(text))[0] for _ in range(5)) * 1000.0
                    cost["parse_us"].append(us)
                    ms, query = self.timed("core.parse", rid, lambda: engine.parse(text))
                    cost["parse"].append(ms)
                    kws = list(query.keywords)
                    ms, ts = self.timed(
                        "schema_search.tuple_sets", rid,
                        lambda: engine.substrates.tuple_sets(kws))
                    cost["tuple_sets"].append(ms)
                    ms, cns = self.timed(
                        "schema_search.cn_enumerate", rid,
                        lambda: generate_candidate_networks(
                            engine.schema_graph, ts, max_size=engine.max_cn_size))
                    cost["cn_enumerate"].append(ms)
                    cns_count.append(len(cns))
                    # Fill the CN memo so the timed search is plan + join
                    # + score + top-k only.
                    engine.substrates.candidate_networks(kws, engine.max_cn_size)
                    ms, results = self.timed(
                        "schema_search.execute", rid,
                        lambda: engine.search(text, k=K, method="schema", use_cache=False))
                    cost["execute"].append(ms)
                    ms, _ = self.timed(
                        "core.serialise", rid,
                        lambda: json.dumps(results.to_dict()))
                    cost["serialise"].append(ms)
        total = float(sum(weights))

        def per_request(stage: str) -> float:
            return sum(c * w for c, w in zip(cost[stage], weights)) / total

        m["query.parse_us"] = statistics.fmean(cost["parse_us"])
        m["core.parse_ms"] = statistics.fmean(cost["parse"])
        m["schema_search.tuple_sets_ms"] = statistics.fmean(cost["tuple_sets"])
        m["schema_search.cn_enumerate_ms"] = per_request("cn_enumerate")
        m["schema_search.cns_per_query"] = sum(
            c * w for c, w in zip(cns_count, weights)) / total
        m["schema_search.execute_ms"] = per_request("execute")
        m["core.serialise_ms"] = per_request("serialise")
        once = (sum(cost["parse"]) + sum(cost["tuple_sets"])) / total
        stage_sum = once + sum(
            per_request(s) for s in ("cn_enumerate", "execute", "serialise"))
        m["schema_search.execute_share"] = m["schema_search.execute_ms"] / stage_sum
        self.stage_sum_ms = stage_sum

    # ------------------------------------------------------------------
    # Config probes
    # ------------------------------------------------------------------
    def _probe_cold_ms(self, make_engine: Callable[[], Any], parent: int, name: str) -> float:
        """Mean latency of the probe queries, each cold on a new engine;
        per query the better of two engines, so the ratios built from
        this survive a noisy second."""
        queries = PROBE_QUERIES[: 2 if self.smoke else None]
        best = [float("inf")] * len(queries)
        for _ in range(1 if self.smoke else 2):
            engine = make_engine()
            for i, text in enumerate(queries):
                ms, _ = self.timed(name, parent, lambda: engine.search(
                    text, k=K, method="schema", use_cache=False), query=text)
                best[i] = min(best[i], ms)
            # the sharded coordinator closes its shards, an engine its index
            (getattr(engine, "close", None) or engine.index.close)()
        return statistics.fmean(best)

    def index_and_graph(self) -> None:
        m = self.metrics
        with self.spans.span("probe.index_graph") as root:
            db = build_db(self.dataset)

            def build_index():
                index = InvertedIndex(db)
                index.matching_tuples_view("xml")
                return index

            m["index.build_ms"], _ = self.timed("index.build", root, build_index)
            engine = KeywordSearchEngine(db)
            engine.index
            m["graph.build_ms"], _ = self.timed(
                "graph.build", root, lambda: engine.data_graph)
            m["index.distance_build_ms"], _ = self.timed(
                "index.distance_build", root, lambda: engine.distance_index)

    def storage(self) -> None:
        m = self.metrics
        with self.spans.span("probe.storage") as root:
            db = build_db(self.dataset)
            search_ms = {}
            for backend in BACKENDS:
                options = None
                if backend == "disk":
                    options = {"path": os.path.join(self.tmp, "probe.rkws")}
                build_ms, index = self.timed(
                    f"storage.{backend}.build", root,
                    lambda: InvertedIndex(db, backend=backend, backend_options=options))
                vocab = sorted(index.vocabulary)
                sample = random.Random(5).sample(vocab, min(VOCAB_SAMPLE, len(vocab)))

                def lookups():
                    for token in sample:
                        index.matching_tuples_view(token)
                        index.idf(token)

                lookup_ms, _ = self.timed(f"storage.{backend}.lookup", root, lookups)
                m[f"storage.{backend}.build_ms"] = build_ms
                m[f"storage.{backend}.resident_bytes"] = float(index.resident_bytes())
                m[f"storage.{backend}.lookup_us"] = lookup_ms * 1000.0 / len(sample)
                index.close()
                if backend == "disk":
                    options = {"path": os.path.join(self.tmp, "probe-search.rkws")}
                search_ms[backend] = self._probe_cold_ms(
                    lambda: KeywordSearchEngine(
                        build_db(self.dataset), backend=backend, backend_options=options),
                    root, f"storage.{backend}.search")
            self.single_cold_ms = search_ms["dict"]
            m["storage.columnar.search_ratio"] = search_ms["columnar"] / search_ms["dict"]
            m["storage.disk.search_ratio"] = search_ms["disk"] / search_ms["dict"]

    def sharding(self) -> None:
        m = self.metrics
        with self.spans.span("probe.sharding") as root:
            for n in (1, 2):
                built = []

                def make_engine():
                    db = build_db(self.dataset)
                    ms, engine = self.timed(
                        "sharding.build", root,
                        lambda: ShardedSearchEngine(db, n_shards=n), shards=n)
                    built.append(ms)
                    return engine

                cold = self._probe_cold_ms(make_engine, root, f"sharding.search_{n}")
                m[f"sharding.search_ratio_{n}"] = cold / self.single_cold_ms
                if n == 2:
                    m["sharding.build_ms"] = min(built)

    def x2(self) -> None:
        """Probe-query cost at biblio-300 over biblio-150 (linear = 2)."""
        with self.spans.span("probe.x2") as root:
            cold = {
                dataset: self._probe_cold_ms(
                    lambda: KeywordSearchEngine(build_db(dataset)), root,
                    f"schema_search.execute.{dataset}")
                for dataset in ("biblio-150", "biblio-300")
            }
            self.metrics["schema_search.execute_x2_ratio"] = (
                cold["biblio-300"] / cold["biblio-150"])

    def durability(self) -> None:
        m = self.metrics
        n = MICRO_INSERTS // 4 if self.smoke else MICRO_INSERTS
        with self.spans.span("probe.durability") as root:
            db = build_db(self.dataset)
            ops = insert_pairs(db, 0, n)
            ms, _ = self.timed("relational.insert", root, lambda: [
                db.insert(op[1], **op[2]) for op in ops])
            m["relational.insert_us"] = ms * 1000.0 / len(ops)

            wal_dir = os.path.join(self.tmp, "probe-wal")
            wal = WriteAheadLog(wal_dir)
            records = [{"op": "insert", "table": op[1], "values": op[2]} for op in ops]
            ms, _ = self.timed("durability.wal_append", root, lambda: [
                wal.append(record) for record in records])
            wal.close()
            m["durability.wal_append_us"] = ms * 1000.0 / len(records)
            m["durability.wal_bytes_per_insert"] = dir_bytes(wal_dir) / len(records)

            root_dir = os.path.join(self.tmp, "probe-durable")
            engine = KeywordSearchEngine(build_db(self.dataset))
            engine.index
            durable = DurableEngine(engine, root_dir)
            ms, _ = self.timed("durability.insert", root, lambda: [
                durable.insert(op[1], **op[2]) for op in ops])
            m["durability.insert_ms"] = ms / len(ops)
            m["durability.snapshot_ms"], info = self.timed(
                "durability.snapshot", root, durable.snapshot)
            m["durability.snapshot_bytes"] = float(
                dir_bytes(os.path.join(root_dir, "snapshots")))
            # Inserts after the checkpoint, so recovery replays a WAL suffix.
            more = insert_pairs(engine.db, n, n)
            for op in more:
                durable.insert(op[1], **op[2])
            durable.close()
            m["durability.recover_ms"], (recovered, _) = self.timed(
                "durability.recover", root,
                lambda: DurableEngine.recover(root_dir, trace=False))
            m["durability.fsck_ms"], report = self.timed(
                "durability.fsck", root, recovered.fsck)
            recovered.close()
            if not report.ok:
                raise RuntimeError(f"probe fsck: {report.summary()}")

    def xml(self) -> None:
        m = self.metrics
        with self.spans.span("probe.xml") as root:
            tree = generate_bib_xml(n_confs=25 if self.smoke else 100)
            engine = XmlSearchEngine(tree)
            m["xmltree.index_build_ms"], _ = self.timed(
                "xmltree.index_build", root, lambda: engine.index)
            rng = random.Random(9)
            vocab = ["xml", "keyword", "search", "database", "query", "index",
                     "stream", "mining", "graph", "ranking"]
            queries = [" ".join(rng.sample(vocab, 2)) for _ in range(XML_QUERIES)]
            for semantics in ("slca", "elca"):
                lat = [
                    self.timed(f"xml_search.{semantics}", root, lambda: engine.search(
                        text, k=K, semantics=semantics))[0]
                    for text in queries
                ]
                m[f"xml_search.{semantics}_ms"] = statistics.fmean(lat)

    def engine_trace_overhead(self) -> None:
        """Warm hits with the engine's own ``trace=True`` against off."""
        n = TRACE_HITS // 4 if self.smoke else TRACE_HITS
        with self.spans.span("probe.engine_trace") as root:
            engine = KeywordSearchEngine(build_db(self.dataset))
            for text in PROBE_QUERIES:
                engine.search(text, k=K)
            wall = {}
            for flag in (False, True, False, True):
                ms, _ = self.timed("obs.engine_trace", root, lambda: [
                    engine.search(PROBE_QUERIES[i % len(PROBE_QUERIES)], k=K, trace=flag)
                    for i in range(n)], trace=flag)
                wall[flag] = min(ms, wall.get(flag, ms))
            self.metrics["obs.engine_trace_overhead_pct"] = (
                (wall[True] - wall[False]) / wall[False] * 100.0)


def run_probes(spec: Dict[str, Any]) -> Dict[str, Any]:
    probes = Probes(spec)
    probes.stage_replay()
    probes.index_and_graph()
    probes.storage()
    probes.sharding()
    probes.x2()
    probes.durability()
    probes.xml()
    probes.engine_trace_overhead()
    return {
        "metrics": probes.metrics,
        "stage_sum_ms": probes.stage_sum_ms,
        "spans": probes.spans.spans,
    }
