"""Record the perf trajectory: run the registered benchmark suites, emit JSON.

    PYTHONPATH=src python benchmarks/run_bench.py
        [--suite api|serving|sharding|durability|storage|query|all]
        [--out PATH] [--smoke]

Future PRs re-run this entry point and compare against the committed
``BENCH_serving.json`` / ``BENCH_sharding.json`` /
``BENCH_durability.json`` / ``BENCH_storage.json`` /
``BENCH_query.json`` to keep the serving, scale-out, durability,
storage and query-front-end paths from regressing.  ``--out`` applies
when a single suite is selected; with ``--suite all`` each suite
writes its default file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.bench_api import run_api_benchmark  # noqa: E402
from benchmarks.bench_durability import run_durability_benchmark  # noqa: E402
from benchmarks.bench_query import run_query_benchmark  # noqa: E402
from benchmarks.bench_serving import run_serving_benchmark  # noqa: E402
from benchmarks.bench_sharding import run_sharding_benchmark  # noqa: E402
from benchmarks.bench_storage import run_storage_benchmark  # noqa: E402


def _write(report: dict, out_path: str) -> None:
    report["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    report["python"] = sys.version.split()[0]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {out_path}")


def _run_serving(args: argparse.Namespace, out_path: str) -> bool:
    report = run_serving_benchmark(workload_size=args.workload_size)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"warm speedup (biblio): {acceptance['warm_speedup_biblio']}x "
        f"(min {acceptance['warm_speedup_min']}x)"
    )
    print(
        f"batch speedup (biblio): {acceptance['batch_speedup_biblio']}x "
        f"(min {acceptance['batch_speedup_min']}x)"
    )
    print(f"serving acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


def _run_sharding(args: argparse.Namespace, out_path: str) -> bool:
    report = run_sharding_benchmark(smoke=args.smoke)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"sharding latency vs single at 1 shard (biblio): "
        f"{acceptance['latency_ratio_1_shard_biblio']}x "
        f"(max {acceptance['latency_ratio_max']}x), pruned fraction "
        f"{acceptance['pruned_fraction_4_shards']}, "
        f"divergences {acceptance['divergences']}"
    )
    print(f"sharding acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


def _run_durability(args: argparse.Namespace, out_path: str) -> bool:
    report = run_durability_benchmark(smoke=args.smoke)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"durability: divergence {acceptance['divergence']}, fsck problems "
        f"{acceptance['fsck_problems']}, replay counts exact "
        f"{acceptance['replay_counts_exact']}"
    )
    print(f"durability acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


def _run_api(args: argparse.Namespace, out_path: str) -> bool:
    report = run_api_benchmark(smoke=args.smoke)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"api: uncontended {report['uncontended']['qps']} qps "
        f"p99 {report['uncontended']['p99_ms']}ms; at 2x load p99 ratio "
        f"{acceptance['p99_ratio']} (max {acceptance['p99_ratio_max']}), "
        f"shed rate {report['overload_2x']['shed_rate']}, "
        f"hit shed share {acceptance['hit_shed_share']}, "
        f"5xx-free {acceptance['no_5xx']}, "
        f"swap under load {acceptance['swap_completed_under_load']}"
    )
    print(f"api acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


def _run_storage(args: argparse.Namespace, out_path: str) -> bool:
    report = run_storage_benchmark(smoke=args.smoke)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"storage: memory ratios vs dict columnar "
        f"{acceptance['memory_ratio_columnar']}x / disk "
        f"{acceptance['memory_ratio_disk']}x (min "
        f"{acceptance['memory_ratio_min']}x), divergences "
        f"{acceptance['divergences']}, lazy page-in "
        f"{acceptance['lazy_page_in']}"
    )
    print(f"storage acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


def _run_query_suite(args: argparse.Namespace, out_path: str) -> bool:
    report = run_query_benchmark(smoke=args.smoke)
    _write(report, out_path)
    acceptance = report["acceptance"]
    print(
        f"query: parse overhead {acceptance['overhead_pct']}% "
        f"(max {acceptance['overhead_pct_max']}%), pushdown speedup "
        f"{report['predicate_pushdown']['speedup_vs_posthoc']}x, "
        f"only-in-range {acceptance['pushdown_only_in_range']}, "
        f"divergences {acceptance['divergences']}"
    )
    print(f"query acceptance pass: {acceptance['pass']}")
    return bool(acceptance["pass"])


SUITES = {
    "api": ("BENCH_api.json", _run_api),
    "serving": ("BENCH_serving.json", _run_serving),
    "sharding": ("BENCH_sharding.json", _run_sharding),
    "durability": ("BENCH_durability.json", _run_durability),
    "storage": ("BENCH_storage.json", _run_storage),
    "query": ("BENCH_query.json", _run_query_suite),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        default="serving",
        choices=sorted(SUITES) + ["all"],
        help="benchmark suite to run (default: serving)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (single suite only; default: repo root "
        "BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--workload-size", type=int, default=50, help="mixed workload size"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="sharding/durability: smaller datasets and relaxed gates",
    )
    args = parser.parse_args(argv)

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.out is not None and len(names) > 1:
        parser.error("--out is only valid with a single --suite")
    ok = True
    for name in names:
        default_out, runner = SUITES[name]
        out_path = args.out or os.path.join(_REPO_ROOT, default_out)
        ok = runner(args, out_path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
