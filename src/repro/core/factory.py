"""The one place serving engines are constructed.

The CLI, the HTTP server's generation builder, crash recovery and the
durability wrapper all need "an engine over this database, sharded or
not, on this storage backend"; they call :func:`build_engine` so the
choice between :class:`KeywordSearchEngine` and
:class:`~repro.sharding.coordinator.ShardedSearchEngine` is made here
and nowhere else.  Both speak one contract — ``search`` (text or parsed
query, with ``budget`` / ``timeout_ms`` / ``max_expansions`` /
``fallback`` / ``trace``), ``search_many``, ``refresh()``, ``warm()``,
``close()``, ``db``, ``metrics`` — so callers never ask which they got.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.engine import KeywordSearchEngine
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database

#: Shard assignment when the caller names none.  Ownership is all a
#: shard is, so cut edges affect balance only; hash assignment is
#: stateless and the cheapest to compute.
DEFAULT_PARTITIONER = "hash"


def build_engine(
    db: Database,
    shards: int = 1,
    partitioner=DEFAULT_PARTITIONER,
    backend: str = "dict",
    backend_options: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> KeywordSearchEngine:
    """A serving engine over *db*: sharded when ``shards > 1``.

    ``repro.sharding`` is imported only when asked for, so a plain
    ``import repro`` never pays for it.
    """
    if shards > 1:
        from repro.sharding.coordinator import ShardedSearchEngine

        return ShardedSearchEngine(
            db,
            n_shards=shards,
            partitioner=partitioner,
            backend=backend,
            backend_options=backend_options,
            metrics=metrics,
        )
    return KeywordSearchEngine(
        db, backend=backend, backend_options=backend_options, metrics=metrics
    )
