"""Smoke tests of the benchmark itself.  Run explicitly (tier-1 does not
collect this directory)::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_driver(*extra: str) -> dict:
    """One driver-form run; the result is the last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1", "--smoke", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_once(workload: str, trace: int) -> None:
    result = run_driver("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for meta in want:
        got = result["metrics"][meta["name"]]
        assert got["unit"] == meta["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_corrupt_golden_entry_fails_the_run(tmp_path) -> None:
    golden_dir = tmp_path / "golden"
    shutil.copytree(os.path.join(HERE, "golden"), golden_dir)
    path = golden_dir / "zipf_pool.json"
    from workloads import Plan

    hottest = Plan("http_search_zipf", 1, smoke=True).read[0][4]  # rank 1
    data = json.loads(path.read_text())
    data["answers"][hottest][0][0] += 0.5  # one entry, its top score
    path.write_text(json.dumps(data))
    result = run_driver("--workload", "http_search_zipf", "--trace", "0",
                        "--golden-dir", str(golden_dir))
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["ok_share"]["value"] < 1.0


class _Degraded(BaseHTTPRequestHandler):
    """Answers every search 200 with ``degraded: true``."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        body = json.dumps({
            "ok": True, "degraded": True, "degraded_reason": "deadline",
            "results": [], "elapsed_ms": 0.1,
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_degraded_response_counts_as_failed() -> None:
    from targets import HttpClient
    from workloads import search_op

    server = HTTPServer(("127.0.0.1", 0), _Degraded)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ops = [search_op("xml keyword"), search_op("widom xml")]
        log = HttpClient(server.server_address[1]).run(ops, clients=2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert sorted(log.fails) == [0, 1]
    assert all(reason.startswith("degraded") for reason in log.fails.values())
    import run

    result = run.PassResult()
    result.phases.append(log)
    assert (result.attempted, result.failed) == (2, 2)  # ok_share = 0


def test_span_file_parses_and_parents_exist() -> None:
    run_driver("--workload", "http_search_zipf", "--trace", "1")
    with open(os.path.join(HERE, "out", "trace-http_search_zipf.json")) as fh:
        spans = json.load(fh)["spans"]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) > 0
    names = {span["name"] for span in spans}
    assert {"request", "serving.transport", "serving.handler",
            "schema_search.execute", "probe.storage"} <= names
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
