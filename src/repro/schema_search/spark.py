"""SPARK top-k under a non-monotonic score (Luo et al., SIGMOD 07).

Slide 117: with the virtual-document score, per-tuple orderings no
longer give a monotonic result order, so DISCOVER2-style pipelines are
unsound.  SPARK instead enumerates *combinations* of tuples from the
CN's non-free tuple sets in descending order of a monotonic **upper
bound** (`uscore`, built from per-tuple watf scores), verifies each
combination by joining it through the free nodes, and stops when the
k-th verified score dominates every remaining bound.

* ``skyline_sweep`` — a priority queue over index vectors; only the
  dominance skyline of the combination lattice is ever resident.
* ``block_pipeline`` — partitions each sorted list into blocks, pops
  whole block-combinations by block-level bound, and sweeps inside a
  block only when its bound still matters — fewer queue operations and
  fewer verifications when scores are skewed.
* ``naive_enumerate`` — verify every combination (the baseline).

All three return identical top-k score multisets (tested); the
benchmark (E3) reports combinations verified and join probes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.index.inverted import InvertedIndex
from repro.relational.database import TupleId
from repro.relational.executor import JoinedRow, node_aliases
from repro.relational.table import Row
from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.scoring import spark_score, tuple_score
from repro.schema_search.tuple_sets import TupleSets

EPS = 1e-9


@dataclass
class SparkStats:
    combinations_verified: int = 0
    join_probes: int = 0
    queue_pops: int = 0

    def merge(self, other: "SparkStats") -> None:
        self.combinations_verified += other.combinations_verified
        self.join_probes += other.join_probes
        self.queue_pops += other.queue_pops


class _CNCombinations:
    """Combination space of one CN's non-free tuple sets."""

    def __init__(
        self,
        cn: CandidateNetwork,
        tuple_sets: TupleSets,
        index: InvertedIndex,
        keywords: Sequence[str],
    ):
        self.cn = cn
        self.tuple_sets = tuple_sets
        self.index = index
        self.keywords = list(keywords)
        self.norm = 1.0 / (1.0 + math.log(cn.size))
        self._adj = cn.adjacency()
        self.non_free = [i for i, n in enumerate(cn.nodes) if not n.is_free]
        self.free = [i for i, n in enumerate(cn.nodes) if n.is_free]
        self.lists: List[List[Tuple[float, TupleId]]] = []
        for i in self.non_free:
            tids = tuple_sets.tuple_ids(cn.nodes[i].key)
            scored = [(tuple_score(index, t, self.keywords), t) for t in tids]
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            self.lists.append(scored)
        self._free_maps: Dict[Tuple[int, str], Dict[object, List[Row]]] = {}
        for node_idx in self.free:
            rows = tuple_sets.rows(cn.nodes[node_idx].key)
            columns = set()
            for nbr, edge in self._adj[node_idx]:
                __, col = edge.join_columns(cn.nodes[nbr].table)
                columns.add(col)
            for column in columns:
                mapping: Dict[object, List[Row]] = {}
                for row in rows:
                    value = row[column]
                    if value is not None:
                        mapping.setdefault(value, []).append(row)
                self._free_maps[(node_idx, column)] = mapping

    # ------------------------------------------------------------------
    def uscore(self, vector: Tuple[int, ...]) -> float:
        """Monotonic upper bound of combinations at/under *vector*."""
        total = 0.0
        for list_idx, pos in enumerate(vector):
            if pos >= len(self.lists[list_idx]):
                return float("-inf")
            total += self.lists[list_idx][pos][0]
        return total * self.norm

    def empty(self) -> bool:
        return any(not lst for lst in self.lists)

    # ------------------------------------------------------------------
    def verify(
        self, vector: Tuple[int, ...], stats: SparkStats
    ) -> List[Tuple[float, JoinedRow]]:
        """Join-check the combination; return completed scored results."""
        stats.combinations_verified += 1
        fixed: Dict[int, Row] = {}
        for list_idx, pos in enumerate(vector):
            __, tid = self.lists[list_idx][pos]
            fixed[self.non_free[list_idx]] = self.tuple_sets.db.row(tid)
        assignments = self._complete(self.non_free[0], fixed, -1, stats)
        out = []
        for assignment in assignments:
            ordered = tuple(assignment[i] for i in range(self.cn.size))
            if len({(r.table.name, r.rowid) for r in ordered}) < len(ordered):
                continue
            joined = JoinedRow(node_aliases(self.cn.size), ordered)
            out.append((spark_score(self.index, joined, self.keywords), joined))
        return out

    def _complete(
        self,
        node_idx: int,
        fixed: Dict[int, Row],
        parent_idx: int,
        stats: SparkStats,
    ) -> List[Dict[int, Row]]:
        """Enumerate assignments for the subtree rooted at node_idx."""
        row = fixed.get(node_idx)
        if row is None:
            raise AssertionError("root of completion must be fixed")
        per_child: List[List[Dict[int, Row]]] = []
        for nbr, edge in self._adj[node_idx]:
            if nbr == parent_idx:
                continue
            left_col, right_col = edge.join_columns(self.cn.nodes[node_idx].table)
            stats.join_probes += 1
            value = row[left_col]
            if value is None:
                return []
            if nbr in fixed:
                if fixed[nbr][right_col] != value:
                    return []
                candidates = [fixed[nbr]]
            else:
                candidates = self._free_maps[(nbr, right_col)].get(value, [])
            sub: List[Dict[int, Row]] = []
            for cand in candidates:
                branch = dict(fixed)
                branch[nbr] = cand
                sub.extend(self._complete(nbr, branch, node_idx, stats))
            if not sub:
                return []
            per_child.append(sub)
        combos: List[Dict[int, Row]] = [{**fixed, node_idx: row}]
        for sub in per_child:
            merged = []
            for combo in combos:
                for branch in sub:
                    merged.append({**combo, **branch})
            combos = merged
        return combos


def _merge_topk(
    heap_items: List[Tuple[float, int, JoinedRow]], k: int
) -> List[Tuple[float, JoinedRow]]:
    heap_items.sort(key=lambda item: (-item[0], item[1]))
    return [(score, joined) for score, _, joined in heap_items[:k]]


def naive_enumerate(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
    stats: Optional[SparkStats] = None,
) -> List[Tuple[float, JoinedRow]]:
    """Verify every combination of every CN (the E3 baseline)."""
    stats = stats if stats is not None else SparkStats()
    counter = itertools.count()
    collected: List[Tuple[float, int, JoinedRow]] = []
    for cn in cns:
        space = _CNCombinations(cn, tuple_sets, index, keywords)
        if space.empty():
            continue
        ranges = [range(len(lst)) for lst in space.lists]
        for vector in itertools.product(*ranges):
            for score, joined in space.verify(tuple(vector), stats):
                collected.append((score, next(counter), joined))
    return _merge_topk(collected, k)


def skyline_sweep(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
    stats: Optional[SparkStats] = None,
) -> List[Tuple[float, JoinedRow]]:
    """Dominance-skyline enumeration in descending uscore order."""
    stats = stats if stats is not None else SparkStats()
    counter = itertools.count()
    collected: List[Tuple[float, int, JoinedRow]] = []
    kth = float("-inf")

    spaces = [
        _CNCombinations(cn, tuple_sets, index, keywords) for cn in cns
    ]
    spaces = [s for s in spaces if not s.empty()]
    # Global priority queue over (cn space, vector).
    pq: List[Tuple[float, int, int, Tuple[int, ...]]] = []
    seen: List[Set[Tuple[int, ...]]] = [set() for _ in spaces]
    for si, space in enumerate(spaces):
        start = tuple([0] * len(space.lists))
        seen[si].add(start)
        heapq.heappush(pq, (-space.uscore(start), next(counter), si, start))
    while pq:
        neg_bound, _, si, vector = heapq.heappop(pq)
        stats.queue_pops += 1
        bound = -neg_bound
        if len(collected) >= k and bound <= kth + EPS:
            break
        space = spaces[si]
        for item in space.verify(vector, stats):
            collected.append((item[0], next(counter), item[1]))
        if len(collected) >= k:
            kth = sorted((c[0] for c in collected), reverse=True)[k - 1]
        # Successors: advance one coordinate.
        for dim in range(len(vector)):
            succ = vector[:dim] + (vector[dim] + 1,) + vector[dim + 1 :]
            if succ[dim] >= len(space.lists[dim]) or succ in seen[si]:
                continue
            seen[si].add(succ)
            heapq.heappush(pq, (-space.uscore(succ), next(counter), si, succ))
    return _merge_topk(collected, k)


def block_pipeline(
    cns: Sequence[CandidateNetwork],
    tuple_sets: TupleSets,
    index: InvertedIndex,
    keywords: Sequence[str],
    k: int = 10,
    block_size: int = 4,
    stats: Optional[SparkStats] = None,
) -> List[Tuple[float, JoinedRow]]:
    """Block-at-a-time enumeration with block-level bounds."""
    stats = stats if stats is not None else SparkStats()
    counter = itertools.count()
    collected: List[Tuple[float, int, JoinedRow]] = []
    kth = float("-inf")

    spaces = [
        _CNCombinations(cn, tuple_sets, index, keywords) for cn in cns
    ]
    spaces = [s for s in spaces if not s.empty()]
    pq: List[Tuple[float, int, int, Tuple[int, ...]]] = []
    for si, space in enumerate(spaces):
        n_blocks = [
            (len(lst) + block_size - 1) // block_size for lst in space.lists
        ]
        for block_vec in itertools.product(*(range(nb) for nb in n_blocks)):
            # Block bound: uscore of the block's best corner.
            corner = tuple(b * block_size for b in block_vec)
            bound = space.uscore(corner)
            heapq.heappush(pq, (-bound, next(counter), si, block_vec))
    while pq:
        neg_bound, _, si, block_vec = heapq.heappop(pq)
        stats.queue_pops += 1
        bound = -neg_bound
        if len(collected) >= k and bound <= kth + EPS:
            break
        space = spaces[si]
        ranges = []
        for dim, block in enumerate(block_vec):
            lo = block * block_size
            hi = min(lo + block_size, len(space.lists[dim]))
            ranges.append(range(lo, hi))
        for vector in itertools.product(*ranges):
            for score, joined in space.verify(tuple(vector), stats):
                collected.append((score, next(counter), joined))
        if len(collected) >= k:
            kth = sorted((c[0] for c in collected), reverse=True)[k - 1]
    return _merge_topk(collected, k)
