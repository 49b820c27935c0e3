"""The paper's primary contribution: sequential and distributed Louvain.

Public entry points:

* :func:`repro.core.sequential.sequential_louvain` — the Blondel et al.
  baseline the paper compares against (Fig. 5, Fig. 9 "sequential" series).
* :func:`repro.core.distributed.distributed_louvain` — Algorithm 1: delegate
  partitioning + parallel local clustering with delegates + distributed graph
  merging + 1D clustering of the coarsened graph.
* :func:`repro.core.baselines.cheong_louvain` — the Cheong-style 1D
  hierarchical baseline of Fig. 7.
"""

from repro.core.modularity import modularity, modularity_gain
from repro.core.sequential import sequential_louvain, SequentialResult
from repro.core.distributed import (
    distributed_louvain,
    DistributedConfig,
    DistributedResult,
    run_with_recovery,
    RecoveryOutcome,
)
from repro.core.baselines import cheong_louvain
from repro.core.heuristics import HEURISTICS
from repro.core.dendrogram import Dendrogram
from repro.core.shared_memory import shared_memory_louvain, SharedMemoryResult
from repro.core.refinement import (
    count_disconnected_communities,
    split_disconnected_communities,
)
from repro.core.checkpoint import (
    Checkpoint,
    load_checkpoint,
    resume_distributed_louvain,
    save_checkpoint,
)
from repro.core.directed import (
    directed_louvain,
    directed_modularity,
    distributed_directed_louvain,
)

__all__ = [
    "modularity",
    "modularity_gain",
    "sequential_louvain",
    "SequentialResult",
    "distributed_louvain",
    "DistributedConfig",
    "DistributedResult",
    "run_with_recovery",
    "RecoveryOutcome",
    "cheong_louvain",
    "HEURISTICS",
    "Dendrogram",
    "shared_memory_louvain",
    "SharedMemoryResult",
    "split_disconnected_communities",
    "count_disconnected_communities",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "resume_distributed_louvain",
    "directed_louvain",
    "directed_modularity",
    "distributed_directed_louvain",
]
