"""Schema-based keyword search — the DISCOVER family (slides 28, 44, 115-135).

Pipeline: keyword query -> tuple sets (exact keyword-subset partition)
-> candidate network (CN) enumeration over the schema graph -> CN
evaluation by one join engine, an index nested-loop over the tables'
own PK/FK indexes (:mod:`~repro.schema_search.topk`; exhaustive
evaluation drains the same cursors) -> (top-k) results, optionally
under SPARK's non-monotonic relevance scoring.  Sharing across CNs is
simulated (the E12 makespan model, :mod:`~repro.schema_search.parallel`)
and counted (the A4 operator mesh, :mod:`~repro.schema_search.mesh`),
not executed.
"""

from repro.schema_search.tuple_sets import TupleSets, TupleSetKey
from repro.schema_search.candidate_networks import (
    CandidateNetwork,
    CNNode,
    generate_candidate_networks,
)
from repro.schema_search.evaluate import evaluate_cn, cn_results
from repro.schema_search.scoring import (
    tuple_score,
    monotonic_result_score,
    spark_score,
)
from repro.schema_search.topk import (
    TopKResult,
    topk_naive,
    topk_sparse,
    topk_single_pipeline,
    topk_global_pipeline,
)
from repro.schema_search.spark import skyline_sweep, block_pipeline
from repro.schema_search.spark2 import (
    PartitionGraph,
    connected_subnetworks,
    evaluate_with_pruning,
    evaluate_without_pruning,
)
from repro.schema_search.mesh import OperatorMesh
from repro.schema_search.parallel import (
    SharedExecutionGraph,
    partition_round_robin,
    partition_greedy,
    partition_sharing_aware,
    simulate_makespan,
)

__all__ = [
    "TupleSets",
    "TupleSetKey",
    "CandidateNetwork",
    "CNNode",
    "generate_candidate_networks",
    "evaluate_cn",
    "cn_results",
    "tuple_score",
    "monotonic_result_score",
    "spark_score",
    "TopKResult",
    "topk_naive",
    "topk_sparse",
    "topk_single_pipeline",
    "topk_global_pipeline",
    "skyline_sweep",
    "block_pipeline",
    "PartitionGraph",
    "connected_subnetworks",
    "evaluate_with_pruning",
    "evaluate_without_pruning",
    "OperatorMesh",
    "SharedExecutionGraph",
    "partition_round_robin",
    "partition_greedy",
    "partition_sharing_aware",
    "simulate_makespan",
]
