"""E22 — sharded scatter-gather: parity, pruning, scatter overhead.

The single engine and the scatter run the *same* bound-ordered CN
executor (:func:`repro.schema_search.topk.run_bound_ordered`), so the
baseline here is the honest one: a sharded engine adds partitioning,
thread hand-off and a lock-guarded global heap to it, and threads under
one GIL add no CPU.  (Before the executors were unified this suite
gated "4 shards >= 2x the single engine", which only ever measured
pruning against no pruning.)

Claims:

1. **Byte-identical top-k.**  For every query, shard count in
   {1, 2, 4, 8} and both partitioners, the sharded engine's top-k is
   byte-identical to the single ``KeywordSearchEngine``'s (divergence
   count must be 0).
2. **Pruning effectiveness.**  The global k-th-score threshold skips a
   measurable fraction of the candidate slots
   (``pruned / (pruned + evaluated)``) on the joining dataset.  The
   single-table products dataset is the control: its queries return
   fewer than k matches and the threshold never engages.
3. **Bounded scatter overhead.**  On the cold workload (result cache
   bypassed, substrates warm) the 1-shard engine — the same executor
   plus the scatter machinery — takes at most ``MAX_LATENCY_RATIO``
   times the single engine's time on the joining dataset.  The whole
   curve (``latency_ratio`` per shard count, both datasets) is
   recorded; wider scatters pay one more thread hand-off per shard.

Runnable under pytest or as a script emitting ``BENCH_sharding.json``:

    PYTHONPATH=src python benchmarks/bench_sharding.py [--smoke] \
        [--out BENCH_sharding.json]
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.datasets.products import generate_product_db
from repro.sharding import ShardedSearchEngine

SHARD_COUNTS = [1, 2, 4, 8]
MAX_LATENCY_RATIO = 1.25  # 1 shard / single engine, biblio, cold workload
MAX_LATENCY_RATIO_SMOKE = 1.6  # CI: ~1 ms queries, fixed overhead looms larger
K = 10

BIBLIO_QUERIES = [
    "database keyword search",
    "john database",
    "xml query processing",
    "smith mining",
    "keyword join index",
    "chen database xml",
]

PRODUCT_QUERIES = [
    "lenovo laptop",
    "ibm thinkpad",
    "light small laptop",
    "laptop",
    "ibm",
    "small screen",
]


def _signature(results) -> bytes:
    """Canonical byte serialisation of a relational ResultSet."""
    payload = [
        [round(r.score, 9), r.network, [str(t) for t in r.tuple_ids()]]
        for r in results
    ]
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _cold_pass(engine, queries: List[str]) -> float:
    start = time.perf_counter()
    for query in queries:
        engine.search(query, k=K, use_cache=False)
    return time.perf_counter() - start


def _bench_dataset(
    name: str,
    db,
    queries: List[str],
    partitioner: str,
    repeats: int,
) -> Dict[str, object]:
    single = KeywordSearchEngine(db)
    # Warm the substrates (index, tuple sets, CN memos) and record the
    # reference signatures; the timed passes then measure evaluation,
    # which is what sharding changes.
    reference = {
        q: _signature(single.search(q, k=K, use_cache=False)) for q in queries
    }
    single_s = min(_cold_pass(single, queries) for _ in range(repeats))

    divergences = 0
    curve = []
    for n_shards in SHARD_COUNTS:
        sharded = ShardedSearchEngine(
            db, n_shards=n_shards, partitioner=partitioner
        )
        try:
            for query in queries:
                results = sharded.search(query, k=K, use_cache=False)
                if results.degraded or _signature(results) != reference[query]:
                    divergences += 1
            sharded.metrics.reset()
            elapsed_s = min(_cold_pass(sharded, queries) for _ in range(repeats))
            snap = sharded.metrics.snapshot()
            evaluated = snap.get("shard.evaluated", 0)
            pruned = snap.get("shard.pruned", 0)
            curve.append(
                {
                    "shards": n_shards,
                    "cold_ms": round(elapsed_s * 1000.0, 3),
                    "latency_ratio": round(elapsed_s / single_s, 3),
                    "evaluated": evaluated,
                    "pruned": pruned,
                    "pruned_fraction": round(
                        pruned / max(1, pruned + evaluated), 4
                    ),
                    "partition": sharded.shard_stats(),
                }
            )
        finally:
            sharded.close()
    return {
        "dataset": name,
        "size": db.size(),
        "queries": len(queries),
        "partitioner": partitioner,
        "single_cold_ms": round(single_s * 1000.0, 3),
        "divergences": divergences,
        "curve": curve,
    }


def run_sharding_benchmark(smoke: bool = False) -> Dict[str, object]:
    repeats = 2 if smoke else 3
    if smoke:
        biblio = generate_bibliographic_db(
            n_authors=60, n_conferences=8, n_papers=150, seed=7
        )
        products = generate_product_db(n_products=400, seed=13)
    else:
        biblio = generate_bibliographic_db(
            n_authors=200, n_conferences=10, n_papers=600, seed=7
        )
        products = generate_product_db(n_products=2500, seed=13)

    biblio_report = _bench_dataset(
        "biblio", biblio, BIBLIO_QUERIES, "affinity", repeats
    )
    products_report = _bench_dataset(
        "products", products, PRODUCT_QUERIES, "hash", repeats
    )

    by_shards = {row["shards"]: row for row in biblio_report["curve"]}
    ratio_1 = by_shards[1]["latency_ratio"]
    pruned_fraction_4 = by_shards[4]["pruned_fraction"]
    max_ratio = MAX_LATENCY_RATIO_SMOKE if smoke else MAX_LATENCY_RATIO
    acceptance = {
        "latency_ratio_1_shard_biblio": ratio_1,
        "latency_ratio_4_shards_biblio": by_shards[4]["latency_ratio"],
        "latency_ratio_max": max_ratio,
        "pruned_fraction_4_shards": pruned_fraction_4,
        "divergences": biblio_report["divergences"]
        + products_report["divergences"],
        "pass": (
            ratio_1 <= max_ratio
            and pruned_fraction_4 > 0.0
            and biblio_report["divergences"] == 0
            and products_report["divergences"] == 0
        ),
    }
    return {
        "benchmark": "sharding",
        "smoke": smoke,
        "k": K,
        "shard_counts": SHARD_COUNTS,
        "datasets": [biblio_report, products_report],
        "acceptance": acceptance,
    }


# ----------------------------------------------------------------------
# Pytest entry points (quick parity-focused checks)
# ----------------------------------------------------------------------
def test_sharded_parity_smoke():
    db = generate_bibliographic_db(
        n_authors=30, n_conferences=4, n_papers=60, seed=7
    )
    single = KeywordSearchEngine(db)
    for query in BIBLIO_QUERIES[:3]:
        expected = _signature(single.search(query, k=K, use_cache=False))
        with ShardedSearchEngine(db, n_shards=4) as sharded:
            got = sharded.search(query, k=K, use_cache=False)
            assert _signature(got) == expected


def test_pruning_engages_on_biblio():
    db = generate_bibliographic_db(
        n_authors=30, n_conferences=4, n_papers=60, seed=7
    )
    with ShardedSearchEngine(db, n_shards=4) as sharded:
        sharded.search("database keyword search", k=K, use_cache=False)
        assert sharded.metrics.snapshot()["shard.pruned"] > 0


def main(argv=None) -> int:
    import argparse
    from datetime import datetime, timezone

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_sharding.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller datasets and a relaxed overhead gate (CI)",
    )
    args = parser.parse_args(argv)

    report = run_sharding_benchmark(smoke=args.smoke)
    report["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    report["python"] = sys.version.split()[0]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    acceptance = report["acceptance"]
    print(f"wrote {args.out}")
    for dataset in report["datasets"]:
        curve = " ".join(
            f"{row['shards']}sh={row['latency_ratio']}x" for row in dataset["curve"]
        )
        print(
            f"{dataset['dataset']}: single={dataset['single_cold_ms']}ms "
            f"{curve} divergences={dataset['divergences']}"
        )
    print(
        f"latency vs single at 1 shard (biblio): "
        f"{acceptance['latency_ratio_1_shard_biblio']}x "
        f"(max {acceptance['latency_ratio_max']}x), pruned fraction "
        f"{acceptance['pruned_fraction_4_shards']}"
    )
    print(f"acceptance pass: {acceptance['pass']}")
    return 0 if acceptance["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
