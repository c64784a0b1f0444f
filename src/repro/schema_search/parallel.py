"""Shared execution and parallel CN partitioning (Qin et al., VLDB 10).

Slides 129-133: a keyword query explodes into many CNs that overlap
substantially.  The *shared execution graph* has one node per distinct
partial join expression (identified by its canonical sub-CN code) with
an estimated cost; a CN's plan is the chain of partials produced by its
join order.  Partitioning CNs across cores then matters:

* ``partition_round_robin`` — slide 131's strawman,
* ``partition_greedy`` — "assign the largest job to the core with the
  lightest load" (sharing-blind LPT),
* ``partition_sharing_aware`` — "assign the largest job to the core
  with the lightest *resulting* load", updating the incremental cost of
  remaining jobs as shared partials get placed (slide 132).

``simulate_makespan`` replaces the paper's multi-core wall-clock: a
core's load is the summed cost of the *distinct* partials it must
compute (a shared partial placed on a core is computed once).  The
substitution preserves the ranking of the policies, which is the claim
E12 reproduces.  Shared execution is simulated here, not executed: the
engine evaluates CNs with its one index nested-loop executor
(:mod:`repro.schema_search.topk`), whose joins build nothing to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.schema_search.candidate_networks import CandidateNetwork
from repro.schema_search.plans import cardinality_join_order, prefix_codes
from repro.schema_search.tuple_sets import TupleSets


@dataclass(frozen=True)
class PlanStep:
    """One partial join expression in a CN's plan."""

    code: str
    cost: float


class SharedExecutionGraph:
    """Distinct partial expressions across a set of CNs, with costs."""

    def __init__(self, cns: Sequence[CandidateNetwork], tuple_sets: TupleSets):
        self.cns = list(cns)
        self.tuple_sets = tuple_sets
        self._plans: List[List[PlanStep]] = [self._plan(cn) for cn in self.cns]
        self._node_cost: Dict[str, float] = {}
        for plan in self._plans:
            for step in plan:
                self._node_cost[step.code] = step.cost

    def _plan(self, cn: CandidateNetwork) -> List[PlanStep]:
        """Left-deep plan: canonical partial-tree codes with costs.

        Uses the cardinality join order
        (:func:`~repro.schema_search.plans.cardinality_join_order`): the
        smallest tuple set drives each left-deep plan.
        """
        steps = cardinality_join_order(cn, self.tuple_sets)
        codes = prefix_codes(cn, steps)
        return [
            PlanStep(code, self._step_cost(cn, step.node))
            for code, step in zip(codes, steps)
        ]

    def _step_cost(self, cn: CandidateNetwork, node_idx: int) -> float:
        """Cost of scanning/joining in one node: its tuple-set size."""
        return float(max(1, self.tuple_sets.size(cn.nodes[node_idx].key)))

    # ------------------------------------------------------------------
    @property
    def plans(self) -> List[List[PlanStep]]:
        return [list(p) for p in self._plans]

    def standalone_cost(self, cn_index: int) -> float:
        return sum(step.cost for step in self._plans[cn_index])

    def node_count(self) -> int:
        return len(self._node_cost)

    def total_shared_cost(self) -> float:
        """Cost of evaluating every distinct partial exactly once."""
        return sum(self._node_cost.values())

    def total_unshared_cost(self) -> float:
        """Cost with no sharing at all (every CN evaluated standalone)."""
        return sum(self.standalone_cost(i) for i in range(len(self.cns)))

    def incremental_cost(self, cn_index: int, have: Set[str]) -> float:
        """Cost of plan *cn_index* given the partials in *have* exist."""
        return sum(
            step.cost for step in self._plans[cn_index] if step.code not in have
        )

    def codes(self, cn_index: int) -> Set[str]:
        return {step.code for step in self._plans[cn_index]}


Assignment = List[List[int]]  # per core: list of CN indices


def simulate_makespan(graph: SharedExecutionGraph, assignment: Assignment) -> float:
    """Max over cores of the summed cost of its distinct partials."""
    makespan = 0.0
    for core in assignment:
        have: Set[str] = set()
        load = 0.0
        for cn_index in core:
            load += graph.incremental_cost(cn_index, have)
            have |= graph.codes(cn_index)
        makespan = max(makespan, load)
    return makespan


def partition_round_robin(graph: SharedExecutionGraph, cores: int) -> Assignment:
    assignment: Assignment = [[] for _ in range(cores)]
    for i in range(len(graph.cns)):
        assignment[i % cores].append(i)
    return assignment


def partition_greedy(graph: SharedExecutionGraph, cores: int) -> Assignment:
    """LPT on standalone costs, blind to sharing (slide 131)."""
    assignment: Assignment = [[] for _ in range(cores)]
    loads = [0.0] * cores
    order = sorted(
        range(len(graph.cns)),
        key=lambda i: -graph.standalone_cost(i),
    )
    for cn_index in order:
        core = min(range(cores), key=lambda c: loads[c])
        assignment[core].append(cn_index)
        loads[core] += graph.standalone_cost(cn_index)
    return assignment


def partition_sharing_aware(graph: SharedExecutionGraph, cores: int) -> Assignment:
    """Greedy on *resulting* loads with shared partials counted once."""
    assignment: Assignment = [[] for _ in range(cores)]
    loads = [0.0] * cores
    have: List[Set[str]] = [set() for _ in range(cores)]
    remaining = sorted(
        range(len(graph.cns)),
        key=lambda i: -graph.standalone_cost(i),
    )
    for cn_index in remaining:
        best_core = 0
        best_resulting = float("inf")
        for core in range(cores):
            resulting = loads[core] + graph.incremental_cost(cn_index, have[core])
            if resulting < best_resulting:
                best_resulting = resulting
                best_core = core
        assignment[best_core].append(cn_index)
        loads[best_core] = best_resulting
        have[best_core] |= graph.codes(cn_index)
    return assignment

