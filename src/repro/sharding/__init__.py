"""Sharded scale-out engine: partitioning, scatter-gather top-k, routing.

A partition is a tuple -> home-shard assignment; shard workers split
the *work* of one query by that ownership over the coordinator's one
index, executor context and data graph.  (Source selection and
cross-database federation are separate library code in
:mod:`repro.distributed`.)
"""

from repro.sharding.coordinator import SCATTER_METHODS, ShardedSearchEngine
from repro.sharding.partition import (
    HashPartitioner,
    SchemaAffinityPartitioner,
    Shard,
    ShardSet,
    build_shards,
    make_partitioner,
)
from repro.sharding.scatter import GlobalTopK, ShardRunStats

__all__ = [
    "ShardedSearchEngine",
    "SCATTER_METHODS",
    "HashPartitioner",
    "SchemaAffinityPartitioner",
    "Shard",
    "ShardSet",
    "build_shards",
    "make_partitioner",
    "GlobalTopK",
    "ShardRunStats",
]
