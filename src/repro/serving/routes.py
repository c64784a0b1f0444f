"""JSON routes for the serving front end.

The :class:`Router` owns everything request handling needs — the
:class:`~repro.serving.swap.EngineHandle`, the
:class:`~repro.serving.admission.AdmissionController`, the worker
pool, and the (optional) durability wrapper — and exposes a single
``async dispatch(request)``.  It is deliberately independent of HTTP
framing: tests drive it with hand-built :class:`Request` objects, and
:mod:`repro.serving.server` adds the socket/HTTP/1.1 layer on top.

Routes::

    GET  /health       liveness: always 200 while the process runs
    GET  /ready        readiness: 503 while a swap or drain is active
    GET  /metrics      MetricsRegistry.snapshot() as JSON
    GET  /search       q, k, method, timeout_ms, max_expansions,
    POST /search       fallback, tenant (also via X-Tenant header)
    POST /batch        {"queries": [...], "k":, "method":, ...}
    POST /insert       {"table":, "values": {...}} (durable when the
                       server was started over a durability dir)
    POST /admin/swap   build + atomically install a new engine
                       generation; {"source": "rebuild"|"recover"}

Request execution follows the admission verdict: ``full`` runs the
requested method, ``fallback`` forces the degradation ladder on,
``index_only`` pins the terminal rung, and a shed request is a 429
carrying ``Retry-After``.  Every admitted query gets a
:class:`~repro.resilience.budget.QueryBudget` carved from the
request's remaining deadline; a client disconnect poisons that budget
so the worker thread unwinds at its next cooperative tick instead of
finishing work nobody will read.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.factory import build_engine
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import QueryBudget
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError, ReproError, UnsupportedSchemaError
from repro.serving.admission import (
    AdmissionController,
    MODE_FALLBACK,
    MODE_FULL,
    MODE_INDEX_ONLY,
)
from repro.serving.swap import EngineHandle


class Request:
    """One parsed request, transport-agnostic."""

    __slots__ = (
        "method",
        "path",
        "params",
        "headers",
        "body",
        "budget",
        "disconnected",
    )

    def __init__(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
        body: Optional[Dict[str, Any]] = None,
    ):
        self.method = method.upper()
        self.path = path
        self.params = params or {}
        self.headers = {k.lower(): v for k, v in (headers or {}).items()}
        self.body = body or {}
        #: Budget of the in-flight query, attached by the route so the
        #: transport can poison it on client disconnect.
        self.budget: Optional[QueryBudget] = None
        self.disconnected = False

    def cancel(self) -> None:
        """Transport-side disconnect: poison any in-flight budget."""
        self.disconnected = True
        budget = self.budget
        if budget is not None:
            budget.poison("client disconnected")

    def param(self, name: str, default: Any = None) -> Any:
        if name in self.params:
            return self.params[name]
        return self.body.get(name, default)

    @property
    def tenant(self) -> str:
        return str(
            self.param("tenant") or self.headers.get("x-tenant") or "default"
        )


class Response:
    """Status + JSON payload + extra headers."""

    __slots__ = ("status", "payload", "headers")

    def __init__(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ):
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class BadRequest(ReproError):
    """Maps to a 400 without touching an engine."""


def _bad(message: str) -> Response:
    return Response(400, {"ok": False, "error": message})


def _shed_response(decision) -> Response:
    retry_s = max(0.001, decision.retry_after_s)
    return Response(
        429,
        {
            "ok": False,
            "error": "shed",
            "reason": decision.reason,
            "retry_after_s": round(retry_s, 3),
            "pressure": round(decision.pressure, 4),
        },
        headers={"Retry-After": str(max(1, int(retry_s + 0.999)))},
    )


def _parse_int(value: Any, name: str, lo: int = 1, hi: int = 1000) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    if not lo <= out <= hi:
        raise BadRequest(f"{name} must be in [{lo}, {hi}], got {out}")
    return out


def _parse_float(value: Any, name: str, lo: float = 0.0) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be a number, got {value!r}")
    if out <= lo:
        raise BadRequest(f"{name} must be > {lo:g}, got {out:g}")
    return out


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).lower() in ("1", "true", "yes", "on")


class Router:
    """Route table + request execution over a swappable engine."""

    def __init__(
        self,
        handle: EngineHandle,
        admission: AdmissionController,
        executor,
        metrics: MetricsRegistry,
        db,
        durable=None,
        engine_builder: Optional[Callable[[Any], Any]] = None,
        default_timeout_ms: float = 2000.0,
        max_timeout_ms: float = 30000.0,
        default_k: int = 10,
        is_ready: Optional[Callable[[], bool]] = None,
        started_at: Optional[float] = None,
    ):
        self.handle = handle
        self.admission = admission
        self.executor = executor
        self.metrics = metrics
        self.db = db
        self.durable = durable
        #: Builds the *next* generation's engine.  Called under the
        #: mutation lock (concurrent inserts can never produce a torn
        #: generation) with the database that is live *at build time* —
        #: after a ``recover`` swap that is a new object, and building
        #: from one captured at boot would silently drop acknowledged
        #: inserts from the new generation.
        self.engine_builder = engine_builder or (
            lambda db: build_engine(db, metrics=self.metrics)
        )
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.default_k = default_k
        self._is_ready = is_ready or (lambda: True)
        self._started_at = started_at if started_at is not None else time.time()
        #: Serialises mutations with generation builds and snapshots.
        self.mutation_lock = threading.Lock()
        # Created lazily inside the running loop: on 3.9 an asyncio
        # primitive built outside the loop binds the wrong one.
        self._slots: Optional[asyncio.Semaphore] = None

    @property
    def slots(self) -> asyncio.Semaphore:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.admission.max_concurrency)
        return self._slots

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request) -> Response:
        route = (request.method, request.path)
        try:
            if request.path == "/health":
                return self._health()
            if request.path == "/ready":
                return self._ready()
            if request.path == "/metrics":
                return self._metrics()
            if request.path == "/search":
                if request.method not in ("GET", "POST"):
                    return self._method_not_allowed(request)
                return await self._search(request)
            if request.path == "/batch":
                if request.method != "POST":
                    return self._method_not_allowed(request)
                return await self._batch(request)
            if request.path == "/insert":
                if request.method != "POST":
                    return self._method_not_allowed(request)
                return await self._insert(request)
            if request.path == "/admin/swap":
                if request.method != "POST":
                    return self._method_not_allowed(request)
                return await self._swap(request)
            return Response(
                404, {"ok": False, "error": f"no route {request.path!r}"}
            )
        except BadRequest as exc:
            self.metrics.inc("serve.bad_requests")
            return _bad(str(exc))
        except (QueryParseError, UnsupportedSchemaError) as exc:
            self.metrics.inc("serve.bad_requests")
            return _bad(str(exc))
        except Exception as exc:  # pragma: no cover - last-resort guard
            self.metrics.inc("serve.internal_errors")
            return Response(
                500,
                {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "route": f"{route[0]} {route[1]}",
                },
            )

    def _method_not_allowed(self, request: Request) -> Response:
        return Response(
            405,
            {"ok": False, "error": f"{request.method} not allowed on {request.path}"},
        )

    # ------------------------------------------------------------------
    # Introspection routes
    # ------------------------------------------------------------------
    def _health(self) -> Response:
        return Response(
            200,
            {
                "ok": True,
                "status": "alive",
                "generation": self.handle.generation,
                "uptime_s": round(time.time() - self._started_at, 3),
            },
        )

    def _ready(self) -> Response:
        swapping = self.handle.swapping
        ready = self._is_ready() and not swapping
        payload = {
            "ok": ready,
            "status": "ready" if ready else "not_ready",
            "swapping": swapping,
            "generation": self.handle.generation,
            "admission": self.admission.stats(),
        }
        return Response(200 if ready else 503, payload)

    def _metrics(self) -> Response:
        return Response(200, {"ok": True, "metrics": self.metrics.snapshot()})

    # ------------------------------------------------------------------
    # /search
    # ------------------------------------------------------------------
    def _search_args(self, request: Request) -> Dict[str, Any]:
        text = request.param("q") or request.param("query")
        if not text or not str(text).strip():
            raise BadRequest("missing query parameter 'q'")
        k = _parse_int(request.param("k", self.default_k), "k")
        method = str(request.param("method", "schema"))
        if method not in KNOWN_METHODS:
            raise BadRequest(
                f"unknown method {method!r} (choices: {', '.join(KNOWN_METHODS)})"
            )
        timeout_ms = request.param("timeout_ms")
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        else:
            timeout_ms = min(
                _parse_float(timeout_ms, "timeout_ms"), self.max_timeout_ms
            )
        max_expansions = request.param("max_expansions")
        if max_expansions is not None:
            max_expansions = _parse_int(
                max_expansions, "max_expansions", lo=1, hi=100_000_000
            )
        expand = request.param("expand")
        if expand is not None:
            expand = str(expand).strip() or None
        if expand is not None:
            # "expand=spelling,synonyms" csv (or "all"); validated here
            # so a typo is a 400 before any engine work.
            from repro.query.pipeline import KNOWN_EXPANSIONS, parse_expand

            if expand.lower() in ("1", "true", "all"):
                expand = ",".join(KNOWN_EXPANSIONS)
            try:
                parse_expand(expand)
            except QueryParseError as exc:
                raise BadRequest(str(exc))
        facets = request.param("facets")
        if facets is not None:
            text_value = str(facets).strip().lower()
            if text_value in ("", "0", "false", "no", "off"):
                facets = None
            elif text_value in ("1", "true", "yes", "on", "auto"):
                facets = True
            # otherwise an explicit "table.column,..." list, passed through
        return {
            "text": str(text),
            "k": k,
            "method": method,
            "timeout_ms": timeout_ms,
            "max_expansions": max_expansions,
            "fallback": _truthy(request.param("fallback", False)),
            "expand": expand,
            "facets": facets,
            "highlight": _truthy(request.param("highlight", False)),
        }

    @staticmethod
    def _apply_mode(args: Dict[str, Any], mode: str) -> Dict[str, Any]:
        """Degrade the request per the admission verdict."""
        out = dict(args)
        if mode == MODE_FALLBACK:
            out["fallback"] = True
        elif mode == MODE_INDEX_ONLY:
            out["method"] = "index_only"
            out["fallback"] = False
        return out

    def _run_query(
        self,
        engine: Any,
        args: Dict[str, Any],
        budget: Optional[QueryBudget],
    ):
        search_kwargs = {"budget": budget, "fallback": args["fallback"]}
        if args.get("expand") or args.get("facets") or args.get("highlight"):
            from repro.query.pipeline import execute_pipeline

            return execute_pipeline(
                engine,
                args["text"],
                k=args["k"],
                method=args["method"],
                expand=args.get("expand"),
                facets=args.get("facets"),
                highlight=bool(args.get("highlight")),
                **search_kwargs,
            )
        return engine.search(
            args["text"], k=args["k"], method=args["method"], **search_kwargs
        )

    async def _search(self, request: Request) -> Response:
        args = self._search_args(request)
        decision = self.admission.admit(request.tenant)
        if not decision.admitted:
            return _shed_response(decision)
        args = self._apply_mode(args, decision.mode)
        start_s = time.perf_counter()
        deadline_s = start_s + args["timeout_ms"] / 1000.0
        self.admission.enqueued()
        # Bounded queue wait: the deadline caps time-in-queue too, so a
        # request cannot sit queued longer than it would be allowed to
        # run.  Expiry or disconnect while queued sheds late (429).
        try:
            await asyncio.wait_for(
                self.slots.acquire(), timeout=max(0.001, deadline_s - time.perf_counter())
            )
        except asyncio.TimeoutError:
            self.admission.abandoned()
            self.metrics.inc("serve.shed.queue_timeout")
            return _shed_response(decision)
        self.admission.started()
        try:
            if request.disconnected:
                self.metrics.inc("serve.disconnects")
                return Response(499, {"ok": False, "error": "client disconnected"})
            remaining_ms = max(1.0, (deadline_s - time.perf_counter()) * 1000.0)
            budget = QueryBudget(
                timeout_ms=remaining_ms,
                max_nodes=args["max_expansions"],
                max_cns=args["max_expansions"],
                max_candidates=args["max_expansions"],
            )
            request.budget = budget
            if request.disconnected:
                budget.poison("client disconnected")
            loop = asyncio.get_running_loop()
            with self.handle.acquire() as (engine, generation):
                results = await loop.run_in_executor(
                    self.executor, self._run_query, engine, args, budget
                )
            elapsed_ms = (time.perf_counter() - start_s) * 1000.0
            payload = results.to_dict()
            payload.update(
                {
                    "ok": True,
                    "generation": generation,
                    "elapsed_ms": round(elapsed_ms, 3),
                    "admission": {
                        "mode": decision.mode,
                        "pressure": round(decision.pressure, 4),
                    },
                }
            )
            if budget.poisoned:
                self.metrics.inc("serve.cancelled")
                return Response(499, {"ok": False, "error": "client disconnected"})
            return Response(200, payload)
        finally:
            self.slots.release()
            self.admission.finished((time.perf_counter() - start_s) * 1000.0)

    # ------------------------------------------------------------------
    # /batch
    # ------------------------------------------------------------------
    async def _batch(self, request: Request) -> Response:
        queries = request.body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise BadRequest("body must carry a non-empty 'queries' list")
        if not all(isinstance(q, str) and q.strip() for q in queries):
            raise BadRequest("every query must be a non-empty string")
        k = _parse_int(request.body.get("k", self.default_k), "k")
        method = str(request.body.get("method", "schema"))
        if method not in KNOWN_METHODS:
            raise BadRequest(f"unknown method {method!r}")
        timeout_ms = min(
            _parse_float(
                request.body.get("timeout_ms", self.default_timeout_ms),
                "timeout_ms",
            ),
            self.max_timeout_ms,
        )
        decision = self.admission.admit(request.tenant, cost=float(len(queries)))
        if not decision.admitted:
            return _shed_response(decision)
        mode_args = self._apply_mode(
            {"method": method, "fallback": False}, decision.mode
        )
        start_s = time.perf_counter()
        deadline_s = start_s + timeout_ms / 1000.0
        self.admission.enqueued()
        # Same bounded queue wait as /search: the per-query timeout
        # caps time-in-queue, so a batch cannot sit queued longer than
        # one of its queries would be allowed to run.
        try:
            await asyncio.wait_for(
                self.slots.acquire(),
                timeout=max(0.001, deadline_s - time.perf_counter()),
            )
        except asyncio.TimeoutError:
            self.admission.abandoned()
            self.metrics.inc("serve.shed.queue_timeout")
            return _shed_response(decision)
        self.admission.started()
        try:
            if request.disconnected:
                self.metrics.inc("serve.disconnects")
                return Response(499, {"ok": False, "error": "client disconnected"})
            # Poison channel only (no deadline of its own — each query
            # carries timeout_ms): a client disconnect mid-batch turns
            # the unread answer into a 499.
            budget = QueryBudget(timeout_ms=None)
            request.budget = budget
            if request.disconnected:
                budget.poison("client disconnected")
            loop = asyncio.get_running_loop()
            with self.handle.acquire() as (engine, generation):
                outcomes = await loop.run_in_executor(
                    self.executor,
                    lambda: self._run_batch(
                        engine,
                        queries,
                        k,
                        mode_args["method"],
                        timeout_ms,
                        mode_args["fallback"],
                    ),
                )
            if budget.poisoned:
                self.metrics.inc("serve.cancelled")
                return Response(499, {"ok": False, "error": "client disconnected"})
            payload = {
                "ok": True,
                "generation": generation,
                "count": len(outcomes),
                "admission": {
                    "mode": decision.mode,
                    "pressure": round(decision.pressure, 4),
                },
                "results": outcomes,
                "elapsed_ms": round((time.perf_counter() - start_s) * 1000.0, 3),
            }
            return Response(200, payload)
        finally:
            self.slots.release()
            self.admission.finished((time.perf_counter() - start_s) * 1000.0)

    def _run_batch(
        self,
        engine: Any,
        queries,
        k: int,
        method: str,
        timeout_ms: float,
        fallback: bool,
    ):
        outcomes = engine.search_many(
            queries,
            k=k,
            method=method,
            timeout_ms=timeout_ms,
            fallback=fallback,
            detailed=True,
        )
        out = []
        for outcome in outcomes:
            entry = outcome.results.to_dict()
            entry["status"] = outcome.status
            if outcome.error is not None:
                entry["error"] = {
                    "type": type(outcome.error).__name__,
                    "message": str(outcome.error),
                }
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # /insert
    # ------------------------------------------------------------------
    async def _insert(self, request: Request) -> Response:
        table = request.body.get("table")
        values = request.body.get("values")
        if not table or not isinstance(values, dict):
            raise BadRequest("body must carry 'table' and a 'values' object")
        loop = asyncio.get_running_loop()
        start_s = time.perf_counter()
        try:
            tid = await loop.run_in_executor(
                self.executor, self._apply_insert, str(table), values
            )
        except Exception as exc:
            name = type(exc).__name__
            if "Schema" in name or isinstance(exc, (ValueError, KeyError)):
                raise BadRequest(f"{name}: {exc}")
            raise
        self.metrics.inc("serve.inserts")
        return Response(
            200,
            {
                "ok": True,
                "tuple": [tid.table, tid.rowid],
                "durable": self.durable is not None,
                "generation": self.handle.generation,
                "elapsed_ms": round((time.perf_counter() - start_s) * 1000.0, 3),
            },
        )

    def _apply_insert(self, table: str, values: Dict[str, Any]):
        """Mutation path: validated, serialised, incrementally refreshed.

        The mutation lock serialises inserts against generation builds
        (``/admin/swap``) and durable snapshots: a new generation is
        always built from a database that is not mid-mutation, which is
        what the mutation-during-swap race tests pin down.
        """
        with self.mutation_lock:
            if self.durable is not None:
                tid = self.durable.insert(table, **values)
            else:
                tid = self.db.insert(table, **values)
                with self.handle.acquire() as (engine, _):
                    engine.refresh()
            return tid

    # ------------------------------------------------------------------
    # /admin/swap
    # ------------------------------------------------------------------
    async def _swap(self, request: Request) -> Response:
        source = str(request.body.get("source", "rebuild"))
        if source not in ("rebuild", "recover"):
            raise BadRequest(f"unknown swap source {source!r}")
        if source == "recover" and self.durable is None:
            raise BadRequest("swap source 'recover' requires a durability dir")
        drain_timeout_s = float(request.body.get("drain_timeout_s", 30.0))
        loop = asyncio.get_running_loop()
        start_s = time.perf_counter()
        result = await loop.run_in_executor(
            self.executor, self._perform_swap, source, drain_timeout_s
        )
        return Response(
            200,
            {
                "ok": True,
                "generation": result.generation,
                "previous_generation": result.previous_generation,
                "drained": result.drained,
                "drain_ms": round(result.drain_ms, 3),
                "source": source,
                "elapsed_ms": round((time.perf_counter() - start_s) * 1000.0, 3),
            },
        )

    def _perform_swap(self, source: str, drain_timeout_s: float):
        """Build the next generation and flip to it.

        Runs on a worker thread.  Only the build and the pointer flip
        happen under the mutation lock — inserts stall for the build's
        duration (tens of milliseconds on the bundled datasets) while
        *queries keep flowing on the old generation*; that trade is
        what guarantees the new generation is never torn.  The drain —
        waiting out queries pinned to the old generation, potentially
        ``drain_timeout_s`` — runs *after* the lock is released, so a
        slow old-generation query never stalls inserts or other swaps.
        """
        with self.mutation_lock:
            if source == "recover":
                new_engine = self._recover_generation()
            else:
                new_engine = self.engine_builder(self.db)
            # Ready the instant it is flipped in: a lazy build after the
            # flip would hand the first unlucky queries the cold-build
            # cost, and a failed build would surface as query errors
            # instead of a failed swap.
            new_engine.warm()
            old = self.handle.flip(new_engine)
            # Future mutations must land in the live generation's
            # database and refresh the live engine, not the retired
            # ones — a recovered generation carries a *new* Database
            # object rebuilt from snapshot + WAL.
            self.db = new_engine.db
            if self.durable is not None:
                self.durable.engine = new_engine
                self.durable.db = new_engine.db
        return self.handle.drain(old, drain_timeout_s=drain_timeout_s)

    def _recover_generation(self):
        """Checkpoint, then rebuild the next generation from disk.

        Exercises the full durability path on a live server: snapshot
        the current state, replay it back through
        :func:`~repro.durability.recovery.recover_engine`, and serve
        the recovered engine — built by the same ``engine_builder`` a
        ``rebuild`` swap uses, so it keeps the serving engine's shard
        count, partitioner and backend.  The WAL handle stays with the
        existing :class:`DurableEngine`; only the serving engine is
        replaced.
        """
        from repro.durability.recovery import recover_engine

        self.durable.snapshot()
        engine, _ = recover_engine(
            self.durable.root_dir,
            metrics=self.metrics,
            trace=False,
            engine_builder=self.engine_builder,
        )
        return engine
