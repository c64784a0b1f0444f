"""Hot-path query serving layer.

The tutorial's scaling section (slides 120-130) argues that a keyword
search system serving real traffic must (a) materialise the statistics
its scorers consult and (b) share work across queries.  This package
supplies the engine-side pieces:

- :class:`~repro.perf.lru.LRUCache` — bounded, thread-safe result cache
  with hit/miss/eviction counters.
- :class:`~repro.perf.substrates.SubstrateCache` — memoised query
  substrates (tuple sets, candidate networks, keyword groups, form
  pipeline) with mutation-counter invalidation.
- :func:`~repro.perf.batch.run_batch` — batch search that computes each
  distinct query once, on the calling thread, behind
  ``KeywordSearchEngine.search_many``.
"""

from repro.perf.batch import BatchQuery
from repro.perf.lru import CacheStats, LRUCache
from repro.perf.substrates import SubstrateCache

__all__ = [
    "BatchQuery",
    "CacheStats",
    "LRUCache",
    "SubstrateCache",
]
