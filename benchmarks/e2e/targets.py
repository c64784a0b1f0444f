"""The two front ends a pass can drive: the HTTP server and the library.

Both start a fresh child, report ``setup_s`` (spawn -> ready) and run a
list of ops into a :class:`PassLog`: one latency per position, the
distinct answer signatures per query, the acknowledged inserts and the
positions that failed.  HTTP latencies are client round trips; library
latencies are timed inside the worker around the public call.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlencode

from procs import READY_TIMEOUT_S, Child, ChildError
from spans import SpanLog
from child import K

#: A request that takes longer than this is a failed op.
CLIENT_TIMEOUT_S = 60.0
#: The generator never runs more threads/connections than cores here.
MAX_CLIENTS = 2


class PassLog:
    """What one ``run`` of ops produced, indexed by position."""

    def __init__(self, n: int):
        self.lat_ms: List[float] = [0.0] * n
        self.starts: List[float] = [0.0] * n
        self.fails: Dict[int, str] = {}
        #: op key -> distinct ``[scores, tuples, degraded]`` seen.
        self.sigs: Dict[str, List[Any]] = {}
        #: position -> index into ``sigs[key]`` of that op's answer.
        self.sig_idx: Dict[int, int] = {}
        #: position -> ``[table, rowid]`` the insert was acknowledged with.
        self.acked: Dict[int, List[Any]] = {}
        self.wall_s = 0.0
        # HTTP only: server-reported handler time and body size.
        self.server_ms: Dict[int, float] = {}
        self.body_bytes: Dict[int, int] = {}

    def note_sig(self, pos: int, key: str, sig: Any) -> None:
        seen = self.sigs.setdefault(key, [])
        if sig not in seen:
            seen.append(sig)
        self.sig_idx[pos] = seen.index(sig)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class HttpTarget:
    """A ``child.py serve`` process plus the closed-loop client below."""

    def __init__(self, dataset: str, durable_dir: Optional[str], label: str,
                 shipped_defaults: bool = False):
        args = ["serve", "--dataset", dataset]
        if durable_dir:
            args += ["--durable-dir", durable_dir]
        if shipped_defaults:
            args.append("--shipped-defaults")
        self.child = Child(args, label)
        self.client = HttpClient(0)

    def start(self) -> float:
        """Wait for the port line, then poll ``/ready``; returns setup_s."""
        child = self.child
        line = child.read_line(READY_TIMEOUT_S)
        while "serving on http://" not in line:
            line = child.read_line(READY_TIMEOUT_S)
        address = line.split("http://", 1)[1].split()[0]
        self.client.port = int(address.rsplit(":", 1)[1])
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                if self.client.get("/ready")[0] == 200:
                    return time.perf_counter() - child.spawned_at
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ChildError(f"{child.label}: /ready never answered 200")
            time.sleep(0.01)

    def run(self, ops: Sequence[Sequence[Any]], clients: int = 1,
            spans: Optional[SpanLog] = None, parent: Optional[int] = None) -> PassLog:
        return self.client.run(ops, clients, spans, parent)

    def server_metrics(self) -> Dict[str, Any]:
        return json.loads(self.client.get("/metrics")[1])["metrics"]

    def sample_rss(self) -> float:
        return self.child.sample_rss()

    def kill(self) -> None:
        self.child.kill()


class HttpClient:
    """Closed-loop keep-alive clients against ``127.0.0.1:port``."""

    def __init__(self, port: int):
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)

    @staticmethod
    def _request(conn, method: str, path: str, body: Optional[Dict[str, Any]]):
        if body is None:
            conn.request(method, path)
        else:
            conn.request(
                method, path, body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
        response = conn.getresponse()
        return response.status, response.read()

    def get(self, path: str):
        conn = self._connect()
        try:
            return self._request(conn, "GET", path, None)
        finally:
            conn.close()

    def run(self, ops: Sequence[Sequence[Any]], clients: int = 1,
            spans: Optional[SpanLog] = None, parent: Optional[int] = None) -> PassLog:
        """Closed loop: client *c* sends positions ``c, c+clients, ...``
        on its own keep-alive connection, each after its previous reply."""
        clients = min(clients, MAX_CLIENTS)
        log = PassLog(len(ops))
        lock = threading.Lock()
        gate = threading.Barrier(clients + 1)

        def client(c: int) -> None:
            conn = self._connect()
            gate.wait()
            try:
                for pos in range(c, len(ops), clients):
                    self._one(conn, pos, ops[pos], log, lock, spans, parent)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        gate.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        log.wall_s = time.perf_counter() - start
        for pos in range(len(ops)):
            if not log.starts[pos]:  # its client thread died on a malformed reply
                log.fails.setdefault(pos, "not executed")
        return log

    def _one(self, conn, pos: int, op: Sequence[Any], log: PassLog,
             lock: threading.Lock, spans: Optional[SpanLog], parent: Optional[int]) -> None:
        if op[0] == "s":
            query = urlencode({"q": op[1], "method": op[2], "k": K})
            method, path, body = "GET", f"/search?{query}", None
        else:
            method, path, body = "POST", "/insert", {"table": op[1], "values": op[2]}
        fail = payload = None
        raw = b""
        t0 = time.perf_counter()
        try:
            status, raw = self._request(conn, method, path, body)
            t1 = time.perf_counter()
            payload = json.loads(raw)
            if status != 200:
                fail = f"status {status}: {payload.get('error')}"
            elif payload.get("degraded"):
                fail = f"degraded: {payload.get('degraded_reason')}"
        except (OSError, http.client.HTTPException, ValueError) as exc:
            t1 = time.perf_counter()
            fail = f"transport: {type(exc).__name__}: {exc}"
            conn.close()  # next request reconnects
        with lock:
            log.starts[pos] = t0
            log.lat_ms[pos] = (t1 - t0) * 1000.0
            if fail is not None:
                log.fails[pos] = fail
                return
            log.server_ms[pos] = float(payload.get("elapsed_ms", 0.0))
            log.body_bytes[pos] = len(raw)
            if op[0] == "s":
                sig = [
                    [r["score"] for r in payload["results"]],
                    [r["tuples"] for r in payload["results"]],
                    False,
                ]
                log.note_sig(pos, op[4], sig)
            else:
                log.acked[pos] = payload["tuple"]
            if spans is not None:
                # The handler's placement inside the round trip is not
                # observable from outside: transport is recorded first,
                # the handler after it, their durations are exact.
                handler_s = log.server_ms[pos] / 1000.0
                split = max(t0, t1 - handler_s)
                rid = spans.add("request", t0, t1, parent, f"{pos}", op=op[0])
                spans.add("serving.transport", t0, split, rid, f"{pos}")
                spans.add("serving.handler", split, t1, rid, f"{pos}")


# ----------------------------------------------------------------------
# Library
# ----------------------------------------------------------------------
class LibTarget:
    def __init__(self, dataset: str, durable_dir: Optional[str], label: str):
        self.dataset = dataset
        self.durable_dir = durable_dir
        self.child = Child(["worker"], label)
        self.rows: Dict[str, int] = {}

    def start(self) -> float:
        reply = self.child.call(
            {"cmd": "build", "dataset": self.dataset, "durable_dir": self.durable_dir},
            timeout_s=READY_TIMEOUT_S,
        )
        self.rows = reply["rows"]
        return time.perf_counter() - self.child.spawned_at

    def run(self, ops: Sequence[Sequence[Any]], clients: int = 1,
            spans: Optional[SpanLog] = None, parent: Optional[int] = None) -> PassLog:
        reply = self.child.call({"cmd": "run", "ops": list(ops), "trace": spans is not None})
        log = self._log(len(ops), reply)
        log.lat_ms = reply["lat_ms"]
        log.starts = reply["starts"]
        log.acked = {int(pos): tid for pos, tid in reply["acked"].items()}
        log.fails = {pos: reason for pos, reason in reply["errors"]}
        if spans is not None:
            spans.adopt(reply["spans"], parent)
        return log

    def search_many(self, ops: Sequence[Sequence[Any]], workers: int) -> PassLog:
        """The ops' texts through one ``search_many``; no per-op latency."""
        reply = self.child.call({"cmd": "search_many", "ops": list(ops), "workers": workers})
        log = self._log(len(ops), reply)
        log.starts[0] = reply["start"]
        return log

    @staticmethod
    def _log(n: int, reply: Dict[str, Any]) -> PassLog:
        log = PassLog(n)
        log.wall_s = reply["wall_s"]
        log.sigs = reply["sigs"]
        log.sig_idx = {int(pos): idx for pos, idx in reply["sig_idx"].items()}
        return log

    def cache_stats(self) -> Dict[str, Any]:
        return self.child.call({"cmd": "cache_stats"})["stats"]

    def fsck(self) -> Dict[str, Any]:
        return self.child.call({"cmd": "fsck"})

    def sample_rss(self) -> float:
        return self.child.sample_rss()

    def kill(self) -> None:
        self.child.kill()


def make_target(front: str, dataset: str, durable_dir: Optional[str], label: str):
    cls = HttpTarget if front == "http" else LibTarget
    return cls(dataset, durable_dir, label)
