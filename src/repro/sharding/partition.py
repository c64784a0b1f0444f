"""Database partitioning for the sharded scatter-gather engine.

A partitioner assigns every tuple a *home* shard.  The shard set built
from an assignment gives each shard a sub-:class:`Database` holding its
home tuples plus a radius-1 *boundary replica* set — the tuples one FK
hop away that live on another shard.  The replicas are what keep
shard-local structures (source-selection summaries, maintenance
routing) aware of the FK edges the partition cuts; the
scatter path itself partitions *work* by anchor tuple over the
coordinator's shared substrates, so answers that span shards are still
produced exactly once, by the home shard of their anchor tuple (see
``docs/ALGORITHMS.md``).

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
    """One partition: a sub-database of home tuples + boundary replicas.

    ``db`` re-inserts member rows (``check_fk=False`` — a replica's
    parent may live elsewhere) with fresh local rowids; the
    ``local↔global`` maps translate.  ``home`` is the set of *global*
    tuple ids this shard owns; :meth:`owns` is the predicate the
    scatter executors slice anchor queues with.
    """

    def __init__(self, shard_id: int, source: Database):
        self.shard_id = shard_id
        self.source = source
        self.db = Database(source.schema)
        self.home: Set[TupleId] = set()
        self.replicas: Set[TupleId] = set()
        self.local_to_global: Dict[TupleId, TupleId] = {}
        self.global_to_local: Dict[TupleId, TupleId] = {}

    # -- membership ----------------------------------------------------
    def owns(self, tid: TupleId) -> bool:
        return tid in self.home

    def contains(self, tid: TupleId) -> bool:
        return tid in self.global_to_local

    def add_row(self, tid: TupleId, is_home: bool) -> bool:
        """Copy one global row in; returns False if already present."""
        if tid in self.global_to_local:
            if is_home:
                self.home.add(tid)
                self.replicas.discard(tid)
            return False
        row = self.source.row(tid)
        local = self.db.insert(tid.table, check_fk=False, **row.as_dict())
        self.local_to_global[local] = tid
        self.global_to_local[tid] = local
        (self.home if is_home else self.replicas).add(tid)
        return True

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}, home={len(self.home)}, "
            f"replicas={len(self.replicas)})"
        )


class ShardSet:
    """All shards of one database plus the assignment that made them."""

    def __init__(
        self,
        db: Database,
        partitioner,
        shards: List[Shard],
        homes: Dict[TupleId, int],
        cut_edges: int,
        total_edges: int,
    ):
        self.db = db
        self.partitioner = partitioner
        self.shards = shards
        self.homes = homes
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
        sizes = [len(s.home) for s in self.shards]
        replicas = sum(len(s.replicas) for s in self.shards)
        total = max(1, self.db.size())
        return {
            "shards": len(self.shards),
            "partitioner": self.partitioner.name,
            "home_sizes": sizes,
            "balance": (max(sizes) / max(1, min(sizes))) if sizes else 1.0,
            "boundary_replicas": replicas,
            "replication_factor": round((total + replicas) / total, 4),
            "cut_edges": self.cut_edges,
            "total_edges": self.total_edges,
            "cut_fraction": round(
                self.cut_edges / max(1, self.total_edges), 4
            ),
        }


def build_shards(db: Database, partitioner) -> ShardSet:
    """Partition *db*: home assignment, boundary replicas, cut-edge audit.

    Rows are copied per shard in global ``(table, rowid)`` order so the
    shard databases are reproducible for a given assignment.
    """
    homes = partitioner.assign(db)
    n = partitioner.n_shards
    shards = [Shard(i, db) for i in range(n)]
    members: List[Set[TupleId]] = [set() for _ in range(n)]
    replica_of: List[Set[TupleId]] = [set() for _ in range(n)]
    cut_edges = 0
    total_edges = 0
    for tid, shard_id in homes.items():
        members[shard_id].add(tid)
    for tid, shard_id in homes.items():
        row = db.row(tid)
        for parent, _ in db.references_of(row):
            # Each FK edge is visited once, from its owning (child) side.
            parent_tid = TupleId(parent.table.name, parent.rowid)
            parent_home = homes[parent_tid]
            total_edges += 1
            if parent_home != shard_id:
                cut_edges += 1
                # Radius-1 boundary replicas, both directions of the cut.
                if parent_tid not in members[shard_id]:
                    replica_of[shard_id].add(parent_tid)
                if tid not in members[parent_home]:
                    replica_of[parent_home].add(tid)
    for shard in shards:
        mine = members[shard.shard_id] | replica_of[shard.shard_id]
        for tid in sorted(mine):
            shard.add_row(tid, is_home=tid in members[shard.shard_id])
    return ShardSet(db, partitioner, shards, homes, cut_edges, total_edges)
