"""Golden answers: load, compare, build a reference, write.

An answer is ``[scores, tuples, degraded]`` keyed by
``<inserts before the op>#<method>|<text>``.  The three read-only
workloads draw from fixed pools, so one golden file per pool holds for
every seed.  ``http_insert_search`` answers depend on the seeded
inserts: seeds 1 and 2 are committed, any other seed is checked
against a reference built from uncached library calls (cross-path
parity), and the run says ``golden: false``.

Comparison: the score sequences must agree to 1e-9, and the tuple ids
must agree at every rank whose score is strictly above the k-th score,
so the known arbitrary choice among ties at rank k is not pinned.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro import KeywordSearchEngine
from repro.schema_search import generate_candidate_networks
from repro.schema_search import topk_naive

from child import K, signature
from procs import HERE
from workloads import Plan, build_db

GOLDEN_DIR = os.path.join(HERE, "golden")
SCORE_TOL = 1e-9
GOLDEN_SEEDS = (1, 2)


def golden_path(plan: Plan, golden_dir: str) -> str:
    name = {
        "http_search_zipf": "zipf_pool",
        "lib_warm_zipf": "zipf_pool",
        "lib_methods_grid": "grid_pool",
        "http_insert_search": f"insert.seed{plan.seed}",
    }[plan.workload]
    if plan.smoke and plan.workload == "http_insert_search":
        name += ".smoke"
    return os.path.join(golden_dir, name + ".json")


def mismatch(actual: List[Any], expected: List[Any]) -> Optional[str]:
    """Why *actual* is not the golden answer, or ``None`` if it is."""
    scores, tuples, degraded = actual
    want_scores, want_tuples = expected[0], expected[1]
    if degraded:
        return "degraded"
    if len(scores) != len(want_scores):
        return f"{len(scores)} results, golden has {len(want_scores)}"
    for rank, (got, want) in enumerate(zip(scores, want_scores)):
        if abs(got - want) > SCORE_TOL:
            return f"rank {rank}: score {got!r}, golden {want!r}"
    kth = want_scores[-1] if len(want_scores) >= K else float("-inf")
    for rank, want in enumerate(want_scores):
        if want > kth and tuples[rank] != want_tuples[rank]:
            return f"rank {rank}: tuples {tuples[rank]}, golden {want_tuples[rank]}"
    return None


def load(plan: Plan, golden_dir: str) -> Optional[Dict[str, List[Any]]]:
    path = golden_path(plan, golden_dir)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["answers"]


def reference(plan: Plan, cross_check: bool = False) -> Dict[str, List[Any]]:
    """Answers from uncached library calls on a fresh engine.

    Read-only workloads answer every pool query (so the file covers
    every seed); the insert workload replays the seeded sequence with
    plain ``Database.insert``.  With *cross_check* every ``schema``
    answer is also compared with exhaustive ``topk_naive``.
    """
    db = build_db(plan.dataset)
    engine = KeywordSearchEngine(db)
    answers: Dict[str, List[Any]] = {}
    ops = plan.burst + plan.read if plan.burst_first else plan.pool_ops()
    for op in ops:
        if op[0] == "i":
            db.insert(op[1], **op[2])
            continue
        _, text, method, _, key = op
        if key in answers:
            continue
        answers[key] = signature(engine.search(text, k=K, method=method, use_cache=False))
        if cross_check and method == "schema":
            problem = mismatch(_naive(engine, text), answers[key])
            if problem:
                raise SystemExit(f"golden cross-check failed for {key}: {problem}")
    return answers


def _naive(engine: KeywordSearchEngine, text: str) -> List[Any]:
    keywords = list(engine.parse(text).keywords)
    tuple_sets = engine.substrates.tuple_sets(keywords)
    cns = generate_candidate_networks(
        engine.schema_graph, tuple_sets, max_size=engine.max_cn_size
    )
    rows = topk_naive(cns, tuple_sets, engine.index, keywords, k=K).results
    return [
        [score for score, _, _ in rows],
        [[[r.table.name, r.rowid] for r in joined.rows] for _, _, joined in rows],
        False,
    ]


def write(plan: Plan, golden_dir: str, force: bool) -> Tuple[str, int]:
    path = golden_path(plan, golden_dir)
    if os.path.exists(path) and not force:
        raise SystemExit(f"{path} exists; pass --force to overwrite")
    answers = reference(plan, cross_check=True)
    os.makedirs(golden_dir, exist_ok=True)
    head = {
        "workload": plan.workload,
        "dataset": plan.dataset,
        "k": K,
        "seed": plan.seed if plan.burst_first else None,
    }
    body = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)
    )
    with open(path, "w") as fh:  # one answer per line, so a change diffs as one
        fh.write(json.dumps(head)[:-1] + ', "answers": {\n' + body + "\n}}\n")
    return path, len(answers)
