"""Result objects returned by the facade engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, node_aliases
from repro.xmltree.node import Dewey, XmlNode


@dataclass
class SearchResult:
    """One relational answer: a joining network of tuples."""

    # Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): the
    # result LRU holds hundreds of these.
    __slots__ = ("score", "network", "joined")

    score: float
    network: str  # CN label / semantics description
    joined: JoinedRow

    def tuple_ids(self) -> List[TupleId]:
        return [TupleId(r.table.name, r.rowid) for r in self.joined.rows]

    def describe(self) -> str:
        """Human-readable one-liner for demos and examples."""
        parts = []
        for row in self.joined.distinct_rows():
            text = row.text()
            label = f"{row.table.name}({text[:40]})" if text else row.table.name
            parts.append(label)
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"SearchResult({self.score:.3f}, {self.network})"


def error_object(error: BaseException) -> Dict[str, str]:
    """How a failed query's error is serialised: type name and message."""
    return {"type": type(error).__name__, "message": str(error)}


class ResultSet(list):
    """A list of results plus resilience metadata.

    Subclasses ``list`` so every pre-existing caller (iteration, ``==``
    against plain lists, slicing) keeps working, while the serving path
    can report *how* the answer was produced:

    * ``degraded`` / ``degraded_reason`` — the query exhausted its
      budget (or fell down the method ladder) and the results are the
      best partial answer, not a complete one;
    * ``method`` — the method that actually produced the results;
    * ``fallback_from`` — the originally requested method, when the
      degradation ladder descended;
    * ``error`` — for batch outcomes: the structured error that made
      this result set empty;
    * ``trace`` — when tracing was enabled, the per-query span tree
      (:class:`repro.obs.trace.Trace`); ``None`` otherwise.
    """

    __slots__ = ("degraded", "degraded_reason", "method", "fallback_from", "error", "trace")

    def __init__(
        self,
        items: Sequence = (),
        *,
        method: Optional[str] = None,
        degraded: bool = False,
        degraded_reason: Optional[str] = None,
        fallback_from: Optional[str] = None,
        error: Optional[BaseException] = None,
        trace=None,
    ):
        super().__init__(items)
        self.method = method
        self.degraded = degraded
        self.degraded_reason = degraded_reason
        self.fallback_from = fallback_from
        self.error = error
        self.trace = trace

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "degraded" if self.degraded else "ok"

    def clone(self, trace=None) -> "ResultSet":
        """Shallow copy sharing items but not list identity or metadata.

        The copy carries its own ``trace`` (*trace* argument, default
        ``None``): a cached entry's stored trace describes the original
        computation, not the serving lookup, so cache hits attach a
        fresh lookup trace instead of aliasing the stored one.
        """
        return ResultSet(
            self,
            method=self.method,
            degraded=self.degraded,
            degraded_reason=self.degraded_reason,
            fallback_from=self.fallback_from,
            error=self.error,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # JSON round-tripping (shared by the HTTP routes and CLI --json)
    # ------------------------------------------------------------------
    def to_dict(self, include_rows: bool = False) -> Dict[str, Any]:
        """JSON-safe representation preserving resilience metadata.

        Scores survive exactly: ``json.dumps`` emits the shortest
        round-tripping ``repr`` of each float, so
        ``from_dict(json.loads(json.dumps(rs.to_dict())), db)`` yields
        bit-identical scores.  ``include_rows=True`` additionally
        inlines each tuple's column values for clients without access
        to the database (the reverse direction then still only needs
        the tuple ids).
        """
        results = []
        for result in self:
            entry: Dict[str, Any] = {
                "score": result.score,
                "network": result.network,
                "tuples": [
                    [tid.table, tid.rowid] for tid in result.tuple_ids()
                ],
            }
            if include_rows:
                entry["rows"] = [
                    {"table": row.table.name, "rowid": row.rowid,
                     "values": row.as_dict()}
                    for row in result.joined.rows
                ]
            results.append(entry)
        error = None if self.error is None else error_object(self.error)
        return {
            "status": self.status,
            "method": self.method,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "fallback_from": self.fallback_from,
            "error": error,
            "count": len(results),
            "results": results,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], db=None) -> "ResultSet":
        """Rebuild a :class:`ResultSet` from :meth:`to_dict` output.

        With *db* (the database the results came from), each answer is
        re-materialised as a full :class:`SearchResult` whose
        ``joined`` rows are looked up by tuple id — scores, methods and
        degradation metadata round-trip exactly.  Without *db*, the
        joined rows cannot be reconstructed and ``results`` entries
        stay as plain dicts (score/network/tuples), which is enough for
        client-side display and comparisons.
        """
        items: List[Any] = []
        for entry in data.get("results", ()):
            if db is None:
                items.append(dict(entry))
                continue
            tids = [TupleId(table, rowid) for table, rowid in entry["tuples"]]
            rows = tuple(db.row(tid) for tid in tids)
            items.append(
                SearchResult(
                    score=entry["score"],
                    network=entry["network"],
                    joined=JoinedRow(node_aliases(len(rows)), rows),
                )
            )
        error_data = data.get("error")
        error = None
        if error_data is not None:
            from repro.resilience import errors as _errors

            exc_cls = getattr(_errors, error_data.get("type", ""), None)
            message = error_data.get("message", "")
            if isinstance(exc_cls, type) and issubclass(exc_cls, _errors.ReproError):
                try:
                    error = exc_cls(message)
                except TypeError:
                    error = _errors.ReproError(message)
            else:
                error = _errors.ReproError(message)
        return cls(
            items,
            method=data.get("method"),
            degraded=bool(data.get("degraded", False)),
            degraded_reason=data.get("degraded_reason"),
            fallback_from=data.get("fallback_from"),
            error=error,
        )

    def __repr__(self) -> str:
        extra = "" if self.status == "ok" else f", {self.status}"
        return f"ResultSet({len(self)} results, method={self.method}{extra})"


@dataclass
class XmlResult:
    """One XML answer: a result subtree root."""

    score: float
    root: Dewey
    node: XmlNode
    semantics: str = "slca"

    def path(self) -> str:
        return self.node.label_path()

    def describe(self, max_chars: int = 80) -> str:
        return f"{self.path()}: {self.node.text()[:max_chars]}"

    def __repr__(self) -> str:
        return f"XmlResult({self.score:.3f}, {self.path()})"
