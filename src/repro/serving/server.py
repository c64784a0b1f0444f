"""The asyncio HTTP/1.1 front end (stdlib only).

:class:`ServingServer` wires the whole overload-safe serving stack::

    db ──> EngineHandle(generation 1: KeywordSearchEngine | sharded)
            │                         ▲
            │   AdmissionController   │ /admin/swap builds gen N+1
            ▼                         │ under the mutation lock
    Router.dispatch  ◄── HTTP/1.1 framing (this module)
            │
            ▼
    ThreadPoolExecutor (max_concurrency workers) runs the engine

Design points:

* **hand-rolled HTTP/1.1** over ``asyncio.start_server``: request line
  + headers + Content-Length body, keep-alive by default, bounded
  header/body sizes (413/431 on breach) — no dependencies;
* **disconnect watching** — while a request executes, a reader task
  keeps draining the socket; EOF means the client hung up, which
  cancels the request (its :class:`QueryBudget` is poisoned, the
  worker unwinds at its next cooperative tick).  Bytes that arrive
  instead of EOF are kept for the next pipelined request;
* **graceful shutdown** — SIGTERM/SIGINT stop the listener, flip
  ``/ready`` to 503, let in-flight requests finish under
  ``drain_timeout_s``, then cancel stragglers and shut the pool down.
  :meth:`run` returns 0 on a clean drain so the CLI can exit honestly;
* **thread embedding** — :meth:`start_in_thread` runs the whole loop
  on a daemon thread for tests and benchmarks; :meth:`stop` is
  thread-safe.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import AdmissionController
from repro.serving.routes import Request, Response, Router
from repro.serving.swap import EngineHandle

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadHttp(Exception):
    """Malformed framing; carries the status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Connection:
    """Buffered reader that can watch for client disconnects.

    The watch task keeps reading the socket while a request executes;
    data that arrives is buffered (pipelined requests survive), EOF
    resolves the watch — that is the disconnect signal.
    """

    __slots__ = ("reader", "_buf", "eof")

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self._buf = bytearray()
        self.eof = False

    async def _fill(self) -> bool:
        if self.eof:
            return False
        chunk = await self.reader.read(65536)
        if not chunk:
            self.eof = True
            return False
        self._buf.extend(chunk)
        return True

    async def read_until(self, sep: bytes, limit: int) -> bytes:
        while True:
            idx = self._buf.find(sep)
            if idx >= 0:
                end = idx + len(sep)
                out = bytes(self._buf[:end])
                del self._buf[:end]
                return out
            if len(self._buf) > limit:
                raise _BadHttp(431, "headers too large")
            if not await self._fill():
                if self._buf:
                    raise _BadHttp(400, "truncated request")
                raise EOFError  # clean close between requests

    async def read_exactly(self, n: int) -> bytes:
        while len(self._buf) < n:
            if not await self._fill():
                raise _BadHttp(400, "truncated body")
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    async def watch_disconnect(self) -> None:
        """Resolve only when the peer closes; buffer anything else."""
        while await self._fill():
            pass


class ServingServer:
    """Overload-safe HTTP serving front end over one database."""

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_concurrency: int = 8,
        max_queue_depth: int = 32,
        tenant_rate: float = 500.0,
        tenant_burst: float = 1000.0,
        target_latency_ms: float = 250.0,
        default_timeout_ms: float = 2000.0,
        drain_timeout_s: float = 10.0,
        durable_dir: Optional[str] = None,
        engine_builder: Optional[Callable[[Any], Any]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.host = host
        self.port = port
        self.drain_timeout_s = drain_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        durable = None
        if durable_dir is not None:
            from repro.durability import DurableEngine

            durable = DurableEngine(engine, durable_dir, metrics=self.metrics)
        self.durable = durable
        self.handle = EngineHandle(engine, metrics=self.metrics)
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue_depth=max_queue_depth,
            tenant_rate=tenant_rate,
            tenant_burst=tenant_burst,
            target_latency_ms=target_latency_ms,
            metrics=self.metrics,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=max_concurrency + 2,  # +2: swap/insert never starve
            thread_name_prefix="serve",
        )
        self.router = Router(
            handle=self.handle,
            admission=self.admission,
            executor=self.executor,
            metrics=self.metrics,
            durable=durable,
            engine_builder=engine_builder,
            default_timeout_ms=default_timeout_ms,
            is_ready=lambda: not self._draining,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._drained_clean = True
        self._interrupted = False
        self._stopped: Optional[asyncio.Event] = None  # created in-loop
        self._inflight_requests = 0
        self._idle: Optional[asyncio.Event] = None  # created in-loop
        self._thread: Optional[threading.Thread] = None
        self._thread_ready = threading.Event()
        self._thread_exit: Optional[int] = None
        self.metrics.register_gauge(
            "serve.draining", lambda: int(self._draining)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main-thread loops only)."""
        loop = self._loop
        if loop is None:
            return
        def _on_signal(sig: int) -> None:
            self._interrupted = True
            asyncio.ensure_future(self.shutdown(f"signal {sig}"))

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _on_signal, sig)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or unsupported platform: the embedder
                # (tests, CLI KeyboardInterrupt path) drives shutdown.
                pass

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
            self.install_signal_handlers()
        await self._stopped.wait()

    async def shutdown(self, reason: str = "shutdown") -> bool:
        """Stop accepting, drain in-flight under the deadline, stop.

        Returns True when every in-flight request finished before the
        drain deadline (the CLI turns that into the exit code).
        """
        if self._draining:
            self._stopped.set()
            return True
        self._draining = True
        self.metrics.inc("serve.shutdowns")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout_s)
        except asyncio.TimeoutError:
            drained = False
            self.metrics.inc("serve.drain_timeouts")
        self._drained_clean = drained
        self.executor.shutdown(wait=drained)
        if self.durable is not None:
            self.durable.close()
        self._stopped.set()
        return drained

    def run(self) -> int:
        """Blocking entry point for ``repro serve``.

        Exit codes: 0 = explicit clean stop, 130 = signal-interrupted
        after a clean drain, 1 = drain deadline elapsed with requests
        still in flight.
        """

        async def _main() -> None:
            await self.start()
            self.install_signal_handlers()
            # flush: supervisors and scripts read this line through a
            # pipe to learn the bound port (--port 0 picks a free one).
            print(
                f"serving on http://{self.host}:{self.port} "
                f"(generation {self.handle.generation}); "
                "SIGTERM or Ctrl-C drains and exits",
                flush=True,
            )
            await self._stopped.wait()

        asyncio.run(_main())
        if not self._drained_clean:
            return 1
        return 130 if self._interrupted else 0

    # ------------------------------------------------------------------
    # Thread embedding (tests and benchmarks)
    # ------------------------------------------------------------------
    def start_in_thread(self, timeout_s: float = 10.0) -> "ServingServer":
        """Run the server loop on a daemon thread; returns once ready."""

        def _thread_main() -> None:
            async def _main() -> None:
                await self.start()
                self._thread_ready.set()
                await self._stopped.wait()

            try:
                asyncio.run(_main())
            finally:
                self._thread_ready.set()  # unblock a failed start

        self._thread = threading.Thread(
            target=_thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._thread_ready.wait(timeout_s):
            raise RuntimeError("server thread failed to start in time")
        if self._server is None:
            raise RuntimeError("server failed to bind")
        return self

    def stop(self, timeout_s: float = 15.0) -> bool:
        """Thread-safe graceful stop; returns True on a clean drain."""
        loop = self._loop
        if loop is None or self._stopped is None:
            return True
        future = asyncio.run_coroutine_threadsafe(self.shutdown("stop()"), loop)
        try:
            drained = bool(future.result(timeout_s))
        except Exception:
            drained = False
        thread = self._thread
        if thread is not None:
            thread.join(timeout_s)
        return drained

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader)
        try:
            while not self._draining:
                try:
                    request, keep_alive = await self._read_request(conn)
                except EOFError:
                    break
                except _BadHttp as exc:
                    await self._write_response(
                        writer,
                        Response(exc.status, {"ok": False, "error": str(exc)}),
                        keep_alive=False,
                    )
                    break
                response = await self._execute(conn, request)
                if request.disconnected or conn.eof:
                    break
                keep_alive = keep_alive and not self._draining
                await self._write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _execute(self, conn: _Connection, request: Request) -> Response:
        """Dispatch one request, watching the socket for a disconnect."""
        self._request_started()
        watcher = asyncio.ensure_future(conn.watch_disconnect())
        task = asyncio.ensure_future(self.router.dispatch(request))
        try:
            done, _ = await asyncio.wait(
                {watcher, task}, return_when=asyncio.FIRST_COMPLETED
            )
            if task not in done:
                # The socket resolved first: the client hung up while
                # the request was queued or executing.  Poison the
                # budget and let the worker unwind cooperatively.
                request.cancel()
                self.metrics.inc("serve.disconnects")
            return await task
        finally:
            if not watcher.done():
                watcher.cancel()
                try:
                    await watcher
                except (asyncio.CancelledError, Exception):
                    pass
            self._request_finished()

    def _request_started(self) -> None:
        self._inflight_requests += 1
        self._idle.clear()

    def _request_finished(self) -> None:
        self._inflight_requests -= 1
        if self._inflight_requests <= 0:
            self._idle.set()

    # ------------------------------------------------------------------
    # HTTP framing
    # ------------------------------------------------------------------
    async def _read_request(self, conn: _Connection) -> Tuple[Request, bool]:
        head = await conn.read_until(b"\r\n\r\n", MAX_HEADER_BYTES)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadHttp(400, f"malformed request line {lines[0]!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise _BadHttp(400, f"malformed header {line!r}")
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        params = {k: v for k, v in parse_qsl(split.query)}
        body: Dict[str, Any] = {}
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _BadHttp(400, f"bad Content-Length {length_raw!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadHttp(413, f"body of {length} bytes refused")
        if length:
            raw = await conn.read_exactly(length)
            content_type = headers.get("content-type", "application/json")
            if "json" in content_type or not content_type:
                try:
                    parsed = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise _BadHttp(400, f"bad JSON body: {exc}")
                if not isinstance(parsed, dict):
                    raise _BadHttp(400, "JSON body must be an object")
                body = parsed
            else:
                raise _BadHttp(400, f"unsupported content type {content_type!r}")
        connection = headers.get("connection", "").lower()
        keep_alive = version != "HTTP/1.0" and connection != "close"
        self.metrics.inc("serve.requests")
        return Request(method, split.path, params, headers, body), keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        payload = json.dumps(response.payload).encode("utf-8")
        status_text = _STATUS_TEXT.get(response.status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {response.status} {status_text}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers.items():
            head_lines.append(f"{name}: {value}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()
        self.metrics.inc(f"serve.responses.{response.status}")


def serve(
    engine: Any,
    host: str = "127.0.0.1",
    port: int = 8080,
    **kwargs: Any,
) -> int:
    """Build a :class:`ServingServer` and block until it exits."""
    return ServingServer(engine, host=host, port=port, **kwargs).run()
