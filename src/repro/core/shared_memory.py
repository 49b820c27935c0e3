"""Lu et al.'s shared-memory parallel Louvain (Parallel Computing 2015).

The related-work baseline whose *minimum-label heuristic* the paper extends
(Section IV-C).  The algorithm is Jacobi-style: every vertex evaluates its
best move against a frozen snapshot of the previous iteration's communities
(that is what OpenMP threads racing over shared arrays compute, up to
benign races), ties and singleton swaps are broken by minimum label, and
all moves apply simultaneously.  Shared memory means there is no
owner-aggregation protocol: every thread reads exact, globally fresh
``sigma_tot`` values — which is exactly why the heuristic alone suffices
there and fails in the distributed setting (the paper's Fig. 4 argument).

The simulation is deterministic and thread-count-independent; ``n_threads``
only enters the BSP-style time estimate (work / threads per sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coarsen import coarsen_graph
from repro.core.modularity import modularity
from repro.core.sweep_kernel import level_kernels
from repro.graph.csr import CSRGraph

__all__ = ["shared_memory_louvain", "SharedMemoryResult"]


@dataclass
class SharedMemoryResult:
    """Output of :func:`shared_memory_louvain`."""

    assignment: np.ndarray
    modularity: float
    modularity_per_level: list[float]
    n_levels: int
    sweeps_per_level: list[int] = field(default_factory=list)
    work_units: float = 0.0
    simulated_time: float = 0.0  # work / threads * t_unit


def _jacobi_one_level(
    graph: CSRGraph,
    theta: float,
    max_sweeps: int,
    stall_patience: int,
) -> tuple[np.ndarray, int, float]:
    """Jacobi sweeps with the minimum-label rule until stable.

    Each sweep is the distributed sweep's gain pass
    (:func:`repro.core.sweep_kernel.level_kernels`, bound once per level)
    against the exact ``sigma_tot`` / size columns of the current state.
    The labels lie in ``[0, n)``, so they are their own compact index; the
    greedy rule takes the smallest label among near-equal best gains, and
    Lu et al.'s swap gate then keeps a singleton from entering another
    singleton's community toward a larger label.
    """
    n = graph.n_vertices
    m = graph.total_weight
    two_m = 2.0 * m if m > 0 else 1.0
    wdeg = graph.weighted_degrees
    comm = np.arange(n, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64)
    # shared memory has no remote communities: the column is never read by
    # the greedy rule, but the gain pass takes one
    is_local = np.ones(n, dtype=bool)
    kernels = level_kernels(graph.indptr, graph.indices, graph.weights, wdeg, n)

    best_q = -np.inf
    best_comm = comm.copy()
    stall = 0
    sweeps = 0
    work = 0.0
    for _sweep in range(max_sweeps):
        # frozen snapshot: exact sigma_tot and size of the current state
        sigma_tot = np.bincount(comm, weights=wdeg, minlength=n)
        csize = np.bincount(comm, minlength=n)
        chosen = kernels.gains(
            kernels.scan(comm, n)[2],
            comm,
            comm,
            labels,
            (sigma_tot, csize, is_local),
            two_m=two_m,
            resolution=1.0,
            theta=theta,
            heuristic_name="greedy",
        )[0]
        move = (chosen != comm) & ~(
            (csize[comm] == 1) & (csize[chosen] == 1) & (chosen > comm)
        )
        moved = int(np.count_nonzero(move))
        comm = np.where(move, chosen, comm)
        work += float(graph.indices.size)
        sweeps += 1
        q = modularity(graph, comm)
        if q > best_q + theta:
            best_q = q
            best_comm = comm.copy()
            stall = 0
        else:
            stall += 1
        if moved == 0 or stall >= stall_patience:
            break
    return best_comm, sweeps, work


def shared_memory_louvain(
    graph: CSRGraph,
    n_threads: int = 8,
    theta: float = 1e-12,
    min_q_gain: float = 1e-9,
    max_levels: int = 50,
    max_sweeps: int = 100,
    stall_patience: int = 3,
    t_unit: float = 1.0e-8,
) -> SharedMemoryResult:
    """Multi-level Jacobi/min-label Louvain with a thread-scaled time
    estimate.

    Every sweep scans each directed entry once (``work_units`` counts
    them), evaluating all vertices against the frozen state of the
    previous sweep; ties among near-equal gains go to the smallest label.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    current = graph
    levels: list[np.ndarray] = []
    q_per_level: list[float] = []
    sweeps_per_level: list[int] = []
    total_work = 0.0
    q_prev = modularity(graph, np.arange(graph.n_vertices))
    for _level in range(max_levels):
        assignment, sweeps, work = _jacobi_one_level(
            current, theta, max_sweeps, stall_patience
        )
        total_work += work
        coarse, dense = coarsen_graph(current, assignment)
        levels.append(dense)
        sweeps_per_level.append(sweeps)
        q = modularity(coarse, np.arange(coarse.n_vertices))
        q_per_level.append(q)
        if q - q_prev < min_q_gain:
            break
        q_prev = q
        current = coarse
    flat = levels[0]
    for mapping in levels[1:]:
        flat = mapping[flat]
    return SharedMemoryResult(
        assignment=flat.astype(np.int64),
        modularity=q_per_level[-1],
        modularity_per_level=q_per_level,
        n_levels=len(levels),
        sweeps_per_level=sweeps_per_level,
        work_units=total_work,
        simulated_time=total_work / n_threads * t_unit,
    )
