"""API benchmark: sustained QPS, tail latency, and shedding at 2x load.

Boots the real :class:`~repro.serving.server.ServingServer` (asyncio
HTTP/1.1, admission control, generation swaps) on a loopback port and
measures three things:

1. **uncontended** — a closed loop with exactly ``max_concurrency``
   clients: sustained QPS and p50/p99 of successful requests;
2. **2x overload** — twice that many closed-loop clients: the bounded
   queue + shedding ladder must keep the p99 of *admitted* requests
   within ``P99_DEGRADATION_MAX`` of the uncontended p99, shed the
   excess with 429 + ``Retry-After`` (never a 5xx, never an unbounded
   queue), and keep goodput near the uncontended level;
3. **swap under load** — an ``/admin/swap`` issued mid-overload must
   complete with zero failed or torn in-flight requests.

``run_bench.py --suite api`` records the numbers in ``BENCH_api.json``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.core.engine import KeywordSearchEngine
from repro.datasets.bibliographic import generate_bibliographic_db
from repro.serving.server import ServingServer

QUERIES = [
    "database query",
    "smith database",
    "xml index",
    "john database",
    "xml keyword",
    "chen mining",
    "ullman join",
    "widom xml",
]

MAX_CONCURRENCY = 4
QUEUE_DEPTH = 2
#: High target so the *bounded queue* is the deterministic shedding
#: mechanism here; the latency-EWMA ladder is covered by unit tests.
TARGET_LATENCY_MS = 10_000.0
#: Overload p99 (admitted requests) may be at most this multiple of the
#: uncontended p99 — the acceptance gate from the issue.
P99_DEGRADATION_MAX = 2.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


class _LoadResult:
    def __init__(self):
        self.lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.statuses: Dict[int, int] = {}
        self.missing_retry_after = 0

    def record(self, status: int, latency_ms: float, retry_after: Optional[str]):
        with self.lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 200:
                self.latencies_ms.append(latency_ms)
            elif status == 429 and not retry_after:
                self.missing_retry_after += 1

    def count(self, *statuses: int) -> int:
        with self.lock:
            return sum(self.statuses.get(s, 0) for s in statuses)

    def count_5xx(self) -> int:
        with self.lock:
            return sum(n for s, n in self.statuses.items() if s >= 500)


def _hit(base: str, path: str, result: _LoadResult) -> int:
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            resp.read()
            status, retry_after = resp.status, None
    except urllib.error.HTTPError as exc:
        exc.read()
        status, retry_after = exc.code, exc.headers.get("Retry-After")
    except OSError:
        status, retry_after = 599, None
    result.record(status, (time.perf_counter() - start) * 1000.0, retry_after)
    return status


def _closed_loop(
    base: str, clients: int, duration_s: float, tenant: str
) -> _LoadResult:
    """*clients* threads re-issuing queries back-to-back for *duration_s*."""
    result = _LoadResult()
    stop = time.perf_counter() + duration_s

    def worker(offset: int) -> None:
        i = offset
        while time.perf_counter() < stop:
            query = QUERIES[i % len(QUERIES)].replace(" ", "+")
            status = _hit(base, f"/search?q={query}&tenant={tenant}", result)
            if status == 429:
                time.sleep(0.02)  # polite client: brief backoff on shed
            i += 1

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return result


def _phase_report(result: _LoadResult, duration_s: float) -> Dict[str, object]:
    ok = result.count(200)
    return {
        "requests": sum(result.statuses.values()),
        "ok": ok,
        "shed_429": result.count(429),
        "errors_5xx": result.count_5xx(),
        "qps": round(ok / duration_s, 1),
        "p50_ms": round(_percentile(result.latencies_ms, 0.50), 2),
        "p99_ms": round(_percentile(result.latencies_ms, 0.99), 2),
    }


def run_api_benchmark(smoke: bool = False) -> Dict[str, object]:
    duration_s = 2.0 if smoke else 6.0
    db = generate_bibliographic_db(seed=7)
    server = ServingServer(
        KeywordSearchEngine(db),
        port=0,
        max_concurrency=MAX_CONCURRENCY,
        max_queue_depth=QUEUE_DEPTH,
        tenant_rate=100_000.0,
        tenant_burst=100_000.0,
        target_latency_ms=TARGET_LATENCY_MS,
        engine_builder=lambda live_db: KeywordSearchEngine(live_db),
    )
    server.start_in_thread()
    try:
        # Warm the hot substrates so phase 1 measures steady state.
        for query in QUERIES:
            _hit(server.address, f"/search?q={query.replace(' ', '+')}",
                 _LoadResult())

        # Comfortably under capacity: pressure stays in the full-mode band.
        uncontended = _closed_loop(
            server.address, 2, duration_s, tenant="uncontended"
        )

        # 2x offered load, with a swap fired mid-overload.
        swap_outcome: Dict[str, object] = {}

        def mid_swap() -> None:
            time.sleep(duration_s / 2.0)
            body = json.dumps({"source": "rebuild"}).encode()
            req = urllib.request.Request(
                server.address + "/admin/swap", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=60) as resp:
                    swap_outcome.update(json.loads(resp.read()))
                    swap_outcome["status"] = resp.status
            except urllib.error.HTTPError as exc:
                swap_outcome["status"] = exc.code
                swap_outcome["error"] = exc.read().decode()

        swapper = threading.Thread(target=mid_swap)
        swapper.start()
        overload = _closed_loop(
            server.address,
            2 * (MAX_CONCURRENCY + QUEUE_DEPTH),  # 2x system capacity
            duration_s,
            tenant="overload",
        )
        swapper.join(90.0)

        uncontended_report = _phase_report(uncontended, duration_s)
        overload_report = _phase_report(overload, duration_s)
        p99_ratio = (
            overload_report["p99_ms"] / uncontended_report["p99_ms"]
            if uncontended_report["p99_ms"]
            else 0.0
        )
        shed_rate = (
            overload_report["shed_429"] / overload_report["requests"]
            if overload_report["requests"]
            else 0.0
        )
        report = {
            "suite": "api",
            "smoke": smoke,
            "config": {
                "max_concurrency": MAX_CONCURRENCY,
                "max_queue_depth": QUEUE_DEPTH,
                "duration_s": duration_s,
            },
            "uncontended": uncontended_report,
            "overload_2x": {
                **overload_report,
                "shed_rate": round(shed_rate, 3),
                "missing_retry_after": overload.missing_retry_after,
            },
            "swap_under_load": {
                "status": swap_outcome.get("status"),
                "generation": swap_outcome.get("generation"),
                "drained": swap_outcome.get("drained"),
                "drain_ms": swap_outcome.get("drain_ms"),
            },
        }
        report["acceptance"] = {
            "p99_ratio": round(p99_ratio, 2),
            "p99_ratio_max": P99_DEGRADATION_MAX,
            "no_5xx": overload.count_5xx() == 0
            and uncontended.count_5xx() == 0,
            "sheds_carry_retry_after": overload.missing_retry_after == 0,
            "overload_sheds_excess": overload_report["shed_429"] > 0,
            "swap_completed_under_load": swap_outcome.get("status") == 200
            and bool(swap_outcome.get("drained")),
            "pass": (
                0.0 < p99_ratio <= P99_DEGRADATION_MAX
                and overload.count_5xx() == 0
                and uncontended.count_5xx() == 0
                and overload.missing_retry_after == 0
                and overload_report["shed_429"] > 0
                and swap_outcome.get("status") == 200
                and bool(swap_outcome.get("drained"))
            ),
        }
        return report
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Pytest hooks (shape assertions, smoke-sized)
# ----------------------------------------------------------------------
def test_api_benchmark_smoke():
    report = run_api_benchmark(smoke=True)
    acceptance = report["acceptance"]
    assert acceptance["no_5xx"]
    assert acceptance["sheds_carry_retry_after"]
    assert acceptance["swap_completed_under_load"]
    assert report["overload_2x"]["shed_429"] > 0


if __name__ == "__main__":
    print(json.dumps(run_api_benchmark(smoke=True), indent=2))
