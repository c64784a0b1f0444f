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
    POST /search       fallback, tenant (also via X-Tenant header);
                       expand, facets, highlight (/search only)
    POST /batch        {"queries": [...]} plus k, method, timeout_ms,
                       max_expansions, fallback, tenant — one value
                       each, applied to every query of the batch
    POST /insert       {"table":, "values": {...}} (durable when the
                       server was started over a durability dir)
    POST /admin/swap   build + atomically install a new engine
                       generation; {"source": "rebuild"|"recover"}

``/search`` and ``/batch`` are one admitted-request path
(:meth:`Router._admitted`): admit (a batch costs one token per query),
wait for a worker slot no longer than ``timeout_ms``, build the
request's one :class:`~repro.resilience.budget.QueryBudget` from what
is left of that deadline, pin the live generation, run on a worker
thread.  The routes differ only in how they parse arguments and in
the ``work(engine, budget, mode)`` function they hand it.  Execution
follows the admission verdict: ``full`` runs the requested method,
``fallback`` forces the degradation ladder on, ``index_only`` pins the
terminal rung, and a shed request is a 429 carrying ``Retry-After``.
The request budget is the only deadline below the router — a batch's
queries each tick a fork of it — and a client disconnect poisons it,
so every worker thread unwinds at its next cooperative tick instead of
finishing work nobody will read (499).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.factory import build_engine
from repro.core.frontend import validate_k
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import QueryBudget, make_budget
from repro.resilience.degradation import KNOWN_METHODS
from repro.resilience.errors import QueryParseError, ReproError, UnsupportedSchemaError
from repro.serving.admission import (
    AdmissionController,
    MODE_FALLBACK,
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


#: ``k`` when the request names none, and the cap on a client-chosen
#: ``timeout_ms`` (the server-side default is not capped).
DEFAULT_K = 10
MAX_TIMEOUT_MS = 30000.0


def _bad(message: str) -> Response:
    return Response(400, {"ok": False, "error": message})


def _client_gone() -> Response:
    return Response(499, {"ok": False, "error": "client disconnected"})


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


def _engine_kwargs(
    args: Dict[str, Any], budget: QueryBudget, mode: str
) -> Dict[str, Any]:
    """What ``search`` / ``search_many`` are called with: the request's
    ``k`` / ``method`` / ``fallback`` degraded per the admission verdict,
    under the request's budget."""
    method, fallback = args["method"], args["fallback"]
    if mode == MODE_FALLBACK:
        fallback = True
    elif mode == MODE_INDEX_ONLY:
        method, fallback = "index_only", False
    return {"k": args["k"], "method": method, "fallback": fallback, "budget": budget}


def _outcome_entry(outcome) -> Dict[str, Any]:
    """One :class:`~repro.perf.batch.BatchOutcome` as its JSON entry."""
    entry = outcome.results.to_dict()
    entry["status"] = outcome.status
    if outcome.error is not None:
        entry["error"] = {
            "type": type(outcome.error).__name__,
            "message": str(outcome.error),
        }
    return entry


class Router:
    """Route table + request execution over a swappable engine."""

    def __init__(
        self,
        handle: EngineHandle,
        admission: AdmissionController,
        executor,
        metrics: MetricsRegistry,
        durable=None,
        engine_builder: Optional[Callable[[Any], Any]] = None,
        default_timeout_ms: float = 2000.0,
        is_ready: Optional[Callable[[], bool]] = None,
    ):
        self.handle = handle
        self.admission = admission
        self.executor = executor
        self.metrics = metrics
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
        self._is_ready = is_ready or (lambda: True)
        self._started_at = time.time()
        #: Serialises mutations with generation builds and snapshots.
        self.mutation_lock = threading.Lock()
        # Created lazily inside the running loop: on 3.9 an asyncio
        # primitive built outside the loop binds the wrong one.
        self._slots: Optional[asyncio.Semaphore] = None

    @property
    def db(self):
        """The live generation's database (the handle owns the engine)."""
        return self.handle.engine.db

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
    # The admitted-request path (/search and /batch)
    # ------------------------------------------------------------------
    def _query_args(self, request: Request) -> Dict[str, Any]:
        """The arguments both query routes take, validated."""
        k = request.param("k", DEFAULT_K)
        if isinstance(k, str):  # query-string values arrive as text
            try:
                k = int(k)
            except ValueError:
                pass  # validate_k names the problem
        validate_k(k)  # the engines' own check, with the engines' message
        k = _parse_int(k, "k")  # serving policy: the hi=1000 cap
        method = str(request.param("method", "schema"))
        if method not in KNOWN_METHODS:
            raise BadRequest(
                f"unknown method {method!r} (choices: {', '.join(KNOWN_METHODS)})"
            )
        timeout_ms = request.param("timeout_ms")
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        else:
            timeout_ms = min(_parse_float(timeout_ms, "timeout_ms"), MAX_TIMEOUT_MS)
        max_expansions = request.param("max_expansions")
        if max_expansions is not None:
            max_expansions = _parse_int(
                max_expansions, "max_expansions", lo=1, hi=100_000_000
            )
        return {
            "k": k,
            "method": method,
            "timeout_ms": timeout_ms,
            "max_expansions": max_expansions,
            "fallback": _truthy(request.param("fallback", False)),
        }

    async def _admitted(
        self,
        request: Request,
        cost: float,
        timeout_ms: float,
        max_expansions: Optional[int],
        work: Callable[[Any, QueryBudget, str], Dict[str, Any]],
    ) -> Response:
        """Admit, queue, budget and run one query request; answer it.

        *work* runs on a worker thread as ``work(engine, budget, mode)``
        — the pinned generation's engine, the request's budget (also on
        ``request.budget``, where the transport poisons it on
        disconnect) and the admission mode — and returns the route's
        part of the payload.
        """
        decision = self.admission.admit(request.tenant, cost=cost)
        if not decision.admitted:
            return _shed_response(decision)
        start_s = time.perf_counter()
        deadline_s = start_s + timeout_ms / 1000.0
        self.admission.enqueued()
        # Bounded queue wait: the deadline caps time-in-queue too, so a
        # request cannot sit queued longer than it would be allowed to
        # run.  Expiry while queued sheds late (429).
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
                return _client_gone()
            remaining_ms = max(1.0, (deadline_s - time.perf_counter()) * 1000.0)
            budget = request.budget = make_budget(remaining_ms, max_expansions)
            if request.disconnected:
                budget.poison("client disconnected")
            loop = asyncio.get_running_loop()
            with self.handle.acquire() as (engine, generation):
                payload = await loop.run_in_executor(
                    self.executor, work, engine, budget, decision.mode
                )
            if budget.poisoned:
                self.metrics.inc("serve.cancelled")
                return _client_gone()
            payload.update(
                {
                    "ok": True,
                    "generation": generation,
                    "elapsed_ms": round((time.perf_counter() - start_s) * 1000.0, 3),
                    "admission": {
                        "mode": decision.mode,
                        "pressure": round(decision.pressure, 4),
                    },
                }
            )
            return Response(200, payload)
        finally:
            self.slots.release()
            self.admission.finished((time.perf_counter() - start_s) * 1000.0)

    # ------------------------------------------------------------------
    # /search
    # ------------------------------------------------------------------
    async def _search(self, request: Request) -> Response:
        text = request.param("q") or request.param("query")
        if not text or not str(text).strip():
            raise BadRequest("missing query parameter 'q'")
        text = str(text)
        args = self._query_args(request)
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
        highlight = _truthy(request.param("highlight", False))

        def work(engine: Any, budget: QueryBudget, mode: str) -> Dict[str, Any]:
            kwargs = _engine_kwargs(args, budget, mode)
            if expand or facets or highlight:
                from repro.query.pipeline import execute_pipeline

                return execute_pipeline(
                    engine,
                    text,
                    expand=expand,
                    facets=facets,
                    highlight=highlight,
                    **kwargs,
                ).to_dict()
            return engine.search(text, **kwargs).to_dict()

        return await self._admitted(
            request, 1.0, args["timeout_ms"], args["max_expansions"], work
        )

    # ------------------------------------------------------------------
    # /batch
    # ------------------------------------------------------------------
    async def _batch(self, request: Request) -> Response:
        queries = request.body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise BadRequest("body must carry a non-empty 'queries' list")
        if not all(isinstance(q, str) and q.strip() for q in queries):
            raise BadRequest("every query must be a non-empty string")
        args = self._query_args(request)

        def work(engine: Any, budget: QueryBudget, mode: str) -> Dict[str, Any]:
            outcomes = engine.search_many(
                queries, detailed=True, **_engine_kwargs(args, budget, mode)
            )
            return {
                "count": len(outcomes),
                "results": [_outcome_entry(outcome) for outcome in outcomes],
            }

        cost = float(len(queries))  # one tenant token per query
        return await self._admitted(
            request, cost, args["timeout_ms"], args["max_expansions"], work
        )

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
                return self.durable.insert(table, **values)
            with self.handle.acquire() as (engine, _):
                tid = engine.db.insert(table, **values)
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
            if self.durable is not None:
                self.durable.rebind(new_engine)
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
