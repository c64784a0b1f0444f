"""Database partitioning for the sharded scatter-gather engine.

A partitioner assigns every tuple a *home* shard, and that assignment
(:attr:`ShardSet.homes`) is all a partition is: a :class:`Shard` is an
id plus the ``owns`` predicate over it.  No row is copied anywhere —
the scatter path partitions *work* by anchor tuple over the
coordinator's shared index, executor context and data graph, in global
tuple ids, so answers that span shards are still produced exactly once,
by the home shard of their anchor tuple (see ``docs/ALGORITHMS.md``).

Two partitioners:

* :class:`HashPartitioner` — ``crc32(table:rowid) % n``.  Uniform and
  stateless, but FK-connected tuples scatter, maximising cut edges.
* :class:`SchemaAffinityPartitioner` — routes each tuple along a
  designated FK chain toward a *root table* (the schema-graph hub) and
  hashes the chain's terminal tuple, so a paper, its ``write`` and
  ``cite`` rows land on one shard and cut edges drop.

Both are deterministic across processes (``zlib.crc32``, never the
randomised ``hash()``), so cache keys and test expectations are stable.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.database import Database, TupleId


def _crc_bucket(table: str, rowid: int, n_shards: int) -> int:
    return zlib.crc32(f"{table}:{rowid}".encode("utf-8")) % n_shards


class HashPartitioner:
    """Uniform hash of the tuple identity."""

    name = "hash"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    def assign(self, db: Database) -> Dict[TupleId, int]:
        return {
            tid: _crc_bucket(tid.table, tid.rowid, self.n_shards)
            for tid in db.all_tuple_ids()
        }

    def assign_one(
        self, db: Database, tid: TupleId, existing: Dict[TupleId, int]
    ) -> int:
        """Home of a tuple inserted after the initial assignment."""
        return _crc_bucket(tid.table, tid.rowid, self.n_shards)

    @property
    def token(self) -> str:
        return f"{self.name}:{self.n_shards}"


class SchemaAffinityPartitioner:
    """Keep FK-connected tuples co-resident.

    Each table gets at most one *routing FK*: the foreign key leading
    to a strictly root-closer table (shortest FK-hop distance to the
    root table; ties broken by column name for determinism).  A tuple's
    home is the home of the row its routing FK references — resolved
    transitively, so entire FK chains hang off one terminal tuple,
    which is hashed.  Tuples with no routing FK (the root table itself,
    tables disconnected from the root, NULL FK values, dangling
    references) fall back to the hash of their own identity.
    """

    name = "affinity"

    def __init__(self, n_shards: int, root_table: Optional[str] = None):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.root_table = root_table
        self._route_cache: Optional[Tuple[str, Dict[str, object]]] = None

    # -- schema analysis -----------------------------------------------
    def _fk_adjacency(self, db: Database) -> Dict[str, Set[str]]:
        adj: Dict[str, Set[str]] = {name: set() for name in db.tables}
        for tbl in db.schema:
            for fk in tbl.foreign_keys:
                adj[tbl.name].add(fk.ref_table)
                adj[fk.ref_table].add(tbl.name)
        return adj

    def _pick_root(self, db: Database, adj: Dict[str, Set[str]]) -> str:
        if self.root_table is not None:
            if self.root_table not in db.tables:
                raise ValueError(f"unknown root table {self.root_table!r}")
            return self.root_table
        # Hub table: most FK edges; name breaks ties deterministically.
        degree: Dict[str, int] = {name: 0 for name in db.tables}
        for tbl in db.schema:
            for fk in tbl.foreign_keys:
                degree[tbl.name] += 1
                degree[fk.ref_table] += 1
        return min(degree, key=lambda name: (-degree[name], name))

    def _routing(self, db: Database) -> Tuple[str, Dict[str, object]]:
        """Root table + per-table routing FK (or None)."""
        adj = self._fk_adjacency(db)
        root = self._pick_root(db, adj)
        # BFS distances from the root over the undirected FK graph.
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[str] = []
            for table in frontier:
                for nbr in sorted(adj[table]):
                    if nbr not in dist:
                        dist[nbr] = dist[table] + 1
                        nxt.append(nbr)
            frontier = nxt
        route: Dict[str, object] = {}
        for tbl in db.schema:
            if tbl.name not in dist or tbl.name == root:
                route[tbl.name] = None
                continue
            candidates = [
                fk
                for fk in tbl.foreign_keys
                if dist.get(fk.ref_table, float("inf")) < dist[tbl.name]
            ]
            if not candidates:
                route[tbl.name] = None
                continue
            route[tbl.name] = min(
                candidates, key=lambda fk: (dist[fk.ref_table], fk.column)
            )
        return root, route

    def _follow(
        self,
        db: Database,
        tid: TupleId,
        route: Dict[str, object],
        homes: Dict[TupleId, int],
    ) -> int:
        """Resolve one tuple's home, walking its routing chain."""
        chain: List[TupleId] = []
        current = tid
        while True:
            known = homes.get(current)
            if known is not None:
                home = known
                break
            fk = route.get(current.table)
            if fk is None:
                home = _crc_bucket(current.table, current.rowid, self.n_shards)
                break
            value = db.row(current)[fk.column]
            parent = (
                db.table(fk.ref_table).by_key(value)
                if value is not None
                else None
            )
            if parent is None:
                home = _crc_bucket(current.table, current.rowid, self.n_shards)
                break
            chain.append(current)
            current = TupleId(fk.ref_table, parent.rowid)
        for visited in chain:
            homes[visited] = home
        return home

    def _cached_routing(self, db: Database) -> Tuple[str, Dict[str, object]]:
        if self._route_cache is None:
            self._route_cache = self._routing(db)
        return self._route_cache

    def assign(self, db: Database) -> Dict[TupleId, int]:
        _, route = self._cached_routing(db)
        homes: Dict[TupleId, int] = {}
        for tid in db.all_tuple_ids():
            if tid not in homes:
                homes[tid] = self._follow(db, tid, route, homes)
        return homes

    def assign_one(
        self, db: Database, tid: TupleId, existing: Dict[TupleId, int]
    ) -> int:
        """Home of a late insert; memoises chain hops into *existing*."""
        _, route = self._cached_routing(db)
        return self._follow(db, tid, route, existing)

    @property
    def token(self) -> str:
        suffix = f":{self.root_table}" if self.root_table else ""
        return f"{self.name}:{self.n_shards}{suffix}"


def make_partitioner(spec, n_shards: int):
    """Partitioner from a name (``"hash"`` / ``"affinity"``) or instance."""
    if hasattr(spec, "assign"):
        return spec
    if spec == "hash":
        return HashPartitioner(n_shards)
    if spec == "affinity":
        return SchemaAffinityPartitioner(n_shards)
    raise ValueError(
        f"unknown partitioner {spec!r} (choices: hash, affinity)"
    )


class Shard:
    """One partition: an id and the ownership predicate the scatter
    executors slice anchor queues with (over the shared *homes*)."""

    def __init__(self, shard_id: int, homes: Dict[TupleId, int]):
        self.shard_id = shard_id
        self._homes = homes

    def owns(self, tid: TupleId) -> bool:
        return self._homes.get(tid) == self.shard_id

    def __repr__(self) -> str:
        return f"Shard({self.shard_id})"


class ShardSet:
    """All shards of one database plus the assignment that made them."""

    def __init__(
        self,
        db: Database,
        partitioner,
        homes: Dict[TupleId, int],
        cut_edges: int,
        total_edges: int,
    ):
        self.db = db
        self.partitioner = partitioner
        self.homes = homes
        self.shards = [Shard(i, homes) for i in range(partitioner.n_shards)]
        self.cut_edges = cut_edges
        self.total_edges = total_edges

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def home(self, tid: TupleId) -> int:
        shard = self.homes.get(tid)
        if shard is None:
            shard = self.homes[tid] = self.partitioner.assign_one(
                self.db, tid, self.homes
            )
        return shard

    @property
    def token(self) -> str:
        """Shard-configuration component of coordinator cache keys."""
        return self.partitioner.token

    def stats(self) -> Dict[str, object]:
        sizes = [0] * len(self.shards)
        for shard_id in self.homes.values():
            sizes[shard_id] += 1
        return {
            "shards": len(self.shards),
            "partitioner": self.partitioner.name,
            "home_sizes": sizes,
            "balance": (max(sizes) / max(1, min(sizes))) if sizes else 1.0,
            "cut_edges": self.cut_edges,
            "total_edges": self.total_edges,
            "cut_fraction": round(
                self.cut_edges / max(1, self.total_edges), 4
            ),
        }


def build_shards(db: Database, partitioner) -> ShardSet:
    """Partition *db*: home assignment plus the cut-edge audit."""
    homes = partitioner.assign(db)
    cut_edges = 0
    total_edges = 0
    for tid, shard_id in homes.items():
        # Each FK edge is visited once, from its owning (child) side.
        for parent, _ in db.references_of(db.row(tid)):
            total_edges += 1
            if homes[TupleId(parent.table.name, parent.rowid)] != shard_id:
                cut_edges += 1
    return ShardSet(db, partitioner, homes, cut_edges, total_edges)
