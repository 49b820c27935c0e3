"""The distributed Louvain algorithm (paper Algorithm 1).

Stages, as in the paper:

1. **Distributed delegate partitioning** — :mod:`repro.partition.delegate`
   (or the 1D baseline, for the comparison experiments).
2. **Parallel local clustering with delegates** — iterate Algorithm 2 until
   no vertex changes community (phases tagged ``s1:*``).
3. **Distributed graph merging** — Algorithm 3, re-partitioning the merged
   graph with 1D round-robin.
4. **Parallel local clustering without delegates** — repeat clustering +
   merging on ever-coarser graphs (phases tagged ``s2:*``) until modularity
   stops improving.

Execution is simulated SPMD (see :mod:`repro.runtime`): each rank is a
thread, and all times reported by the benchmark harness come from the BSP
cost model applied to the measured per-rank work and traffic.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.core.heuristics import HEURISTICS, get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.merging import merge_level
from repro.graph.csr import CSRGraph
from repro.partition.delegate import delegate_partition
from repro.partition.distgraph import Partition
from repro.partition.oned import oned_partition
from repro.runtime.engine import SPMDError, run_spmd
from repro.runtime.stats import RunStats

__all__ = [
    "DistributedConfig",
    "DistributedResult",
    "distributed_louvain",
    "run_with_recovery",
    "RecoveryOutcome",
]


@dataclass(frozen=True)
class DistributedConfig:
    """Knobs of Algorithm 1.  Defaults follow the paper."""

    heuristic: str = "enhanced"  # greedy | minlabel | enhanced
    partitioning: str = "delegate"  # delegate | 1d
    d_high: int | None = None  # hub threshold; None -> processor count
    rebalance: bool = True  # delegate partitioning step 3
    theta: float = 1e-12  # modularity-gain tie tolerance
    resolution: float = 1.0  # Reichardt-Bornholdt gamma (1.0 = paper)
    ghost_mode: str = "full"  # ghost label exchange: "full" | "delta"
    sweep_mode: str = "gauss-seidel"  # local sweep: "gauss-seidel" | "vectorized"
    refine: bool = False  # split internally disconnected communities
    min_q_gain: float = 1e-9  # outer-loop stopping criterion
    max_inner: int = 100  # inner iterations per level (safety valve)
    stall_patience: int = 3  # tolerated non-improving inner iterations
    max_levels: int = 50
    timeout: float = 600.0  # simulated-rank deadlock timeout (seconds)
    # fault tolerance: with a checkpoint_path set, the flat assignment on
    # the ORIGINAL graph is persisted (atomically) after every
    # checkpoint_every_level completed levels, enabling run_with_recovery
    # to resume a crashed run from the last completed level
    checkpoint_every_level: int = 0  # 0 disables checkpointing
    checkpoint_path: str | None = None
    # execution backend: "thread" | "process" | "auto" (defer to the
    # REPRO_DEFAULT_BACKEND environment variable; see repro.runtime)
    backend: str = "auto"

    def __post_init__(self) -> None:
        # reject a misspelled choice here, before partitioning runs and
        # before a failed process-backend run discards its pooled ranks
        choices = {
            "heuristic": tuple(HEURISTICS),
            "partitioning": ("delegate", "1d"),
            "ghost_mode": ("full", "delta"),
            "sweep_mode": ("gauss-seidel", "vectorized"),
            "backend": ("auto", "thread", "process"),
        }
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r}; choose from {sorted(allowed)}"
                )
        if self.max_inner < 1:
            # zero inner iterations would report the singleton start as Q=0
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if self.stall_patience < 1:
            # zero patience would stop every level after one inner iteration
            raise ValueError(
                f"stall_patience must be >= 1, got {self.stall_patience}"
            )
        if self.max_levels < 1:
            # the first level always runs, so zero would silently mean one
            raise ValueError(f"max_levels must be >= 1, got {self.max_levels}")
        # an infinite deadline overflows the ranks' waits
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")
        # nan compares False against everything, so range checks alone
        # would let it through (a nan resolution makes every gain nan)
        for name in ("theta", "resolution", "min_q_gain"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.theta < 0:
            # a negative tie tolerance empties the candidate set in the ranks
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.checkpoint_every_level < 0:
            # a negative cadence would silently write no checkpoint
            raise ValueError(
                "checkpoint_every_level must be >= 0 (0 disables "
                f"checkpointing), got {self.checkpoint_every_level}"
            )


@dataclass
class LevelReport:
    """Per-level convergence record (drives Fig. 5)."""

    level: int
    with_delegates: bool
    q_history: list[float]
    moves_history: list[int]
    n_iterations: int
    converged: bool
    q_final: float = 0.0  # Q of the state actually kept for this level
    # True when the outer loop rejected this level (it failed min_q_gain,
    # so its state was thrown away and never merged); discarded levels are
    # reported for Fig. 5 but excluded from modularity_per_level
    discarded: bool = False
    # convergence telemetry from rank 0 (ghost_churn only populated while a
    # tracer is attached; delegate_bytes is rank 0's share of the consensus
    # broadcast volume)
    ghost_churn: list[int] = field(default_factory=list)
    delegate_bytes: float = 0.0


@dataclass
class DistributedResult:
    """Output of :func:`distributed_louvain`."""

    assignment: np.ndarray  # flat community id per original vertex
    modularity: float  # Q computed by the distributed algorithm itself
    modularity_per_level: list[float]
    levels: list[LevelReport]
    n_levels: int
    stats: RunStats  # measured per-rank counters
    partition: Partition
    wall_time: float  # real seconds spent simulating
    partition_time: float  # real seconds spent partitioning
    level_mappings: list[np.ndarray] = field(default_factory=list)

    @property
    def n_communities(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    def dendrogram(self):
        """The community hierarchy as a
        :class:`~repro.core.dendrogram.Dendrogram`."""
        from repro.core.dendrogram import Dendrogram

        return Dendrogram(self.level_mappings[0].shape[0], self.level_mappings)

    def summary(self) -> str:
        """Human-readable run report (communities, Q, levels, runtime
        counters via :func:`repro.runtime.trace.summarize`)."""
        from repro.runtime.trace import summarize

        lines = [
            f"communities      : {self.n_communities}",
            f"modularity Q     : {self.modularity:.6f}",
            f"levels           : {self.n_levels} "
            f"(Q per level: {[round(q, 4) for q in self.modularity_per_level]})",
            f"partition        : {self.partition.kind}, "
            f"{self.partition.hub_global_ids.size} hub delegates",
            f"wall time        : {self.wall_time:.3f}s simulation "
            f"+ {self.partition_time:.3f}s partitioning",
            summarize(self.stats),
        ]
        return "\n".join(lines)


def _worker(comm, partition: Partition, cfg: DistributedConfig, ckpt_base=None):
    """The SPMD program: stages 2-4 of Algorithm 1 on one rank.

    ``ckpt_base`` carries resume state: ``(base_flat, base_levels)`` where
    ``base_flat`` maps each ORIGINAL vertex to its vertex in the (coarse)
    graph this run operates on, and ``base_levels`` is how many levels the
    checkpoint being resumed had already completed.  ``None`` for a fresh
    run.
    """
    lg = partition.locals[comm.rank]
    heuristic = get_heuristic(cfg.heuristic)
    level_maps: list[tuple[np.ndarray, np.ndarray]] = []
    reports: list[LevelReport] = []

    base_flat, base_levels = ckpt_base if ckpt_base is not None else (None, 0)
    checkpointing = cfg.checkpoint_every_level > 0 and cfg.checkpoint_path
    ckpt_flat = base_flat  # running original-vertex composition (root only)
    completed = 0  # levels completed by THIS run

    def level_boundary(fine_ids: np.ndarray, coarse_ids: np.ndarray, q: float):
        """Called after each completed (merged) level: persist the flat
        assignment, then give the fault injector its shot at the boundary.
        The crash window deliberately sits AFTER the checkpoint write, so
        an injected boundary crash exercises resume-from-this-level."""
        nonlocal ckpt_flat, completed
        completed += 1
        if checkpointing:
            with comm.phase("checkpoint"):
                rows = comm.gather((fine_ids, coarse_ids), root=0)
                if comm.rank == 0:
                    ids = np.concatenate([r[0] for r in rows])
                    coarse = np.concatenate([r[1] for r in rows])
                    mapping = np.full(
                        int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64
                    )
                    mapping[ids] = coarse
                    ckpt_flat = (
                        mapping if ckpt_flat is None else mapping[ckpt_flat]
                    )
                    if completed % cfg.checkpoint_every_level == 0:
                        save_checkpoint(
                            cfg.checkpoint_path,
                            Checkpoint(
                                assignment=ckpt_flat,
                                modularity=float(q),
                                n_vertices=int(ckpt_flat.size),
                                levels_completed=base_levels + completed,
                            ),
                        )
        comm.fault_event(f"level:{base_levels + completed - 1}")

    def run_level(level: int, lg, with_delegates: bool):
        """One clustering level on ``lg`` (phases ``s1:*`` for level 0,
        ``s2:*`` after), wrapped in a tracer span carrying its full
        convergence telemetry (modularity trajectory, moves per sweep,
        ghost-label churn, delegate broadcast volume) and recorded in
        ``reports``."""
        clustering = LocalClustering(
            comm,
            lg,
            heuristic,
            theta=cfg.theta,
            max_inner=cfg.max_inner,
            phase_prefix="s1:" if level == 0 else "s2:",
            stall_patience=cfg.stall_patience,
            resolution=cfg.resolution,
            ghost_mode=cfg.ghost_mode,
            sweep_mode=cfg.sweep_mode,
        )
        with comm.trace_span(f"level {level}", cat="level") as span:
            outcome = clustering.run()
            if comm.tracing:
                span.update(
                    level=level,
                    with_delegates=with_delegates,
                    q_history=outcome.q_history,
                    moves_history=outcome.moves_history,
                    ghost_churn=outcome.ghost_churn,
                    delegate_bytes=outcome.delegate_bytes,
                    n_iterations=outcome.n_iterations,
                    converged=outcome.converged,
                    q_final=outcome.q_final,
                )
        reports.append(
            LevelReport(
                level=level,
                with_delegates=with_delegates,
                q_history=outcome.q_history,
                moves_history=outcome.moves_history,
                n_iterations=outcome.n_iterations,
                converged=outcome.converged,
                q_final=outcome.q_final,
                ghost_churn=outcome.ghost_churn,
                delegate_bytes=outcome.delegate_bytes,
            )
        )
        return outcome

    # ---- stage 2: clustering with delegates (one level) ----------------
    outcome = run_level(0, lg, lg.n_hubs > 0)
    q_prev = outcome.q_final

    # ---- stage 3: merge + 1D re-partition ------------------------------
    with comm.phase("s1:merge"):
        lg, fine_ids, coarse_ids = merge_level(comm, lg, outcome.comm_of)
    level_maps.append((fine_ids, coarse_ids))
    level_boundary(fine_ids, coarse_ids, q_prev)

    # ---- stage 4: clustering without delegates -------------------------
    for level in range(1, cfg.max_levels):
        outcome = run_level(level, lg, False)
        q = outcome.q_final
        # Alg. 1 line 16: stop on no modularity improvement.  The check
        # runs BEFORE merging so a non-improving (or, under an unsafe
        # heuristic, degrading) level is discarded and the final
        # assignment is exactly the state whose Q we report.
        if q - q_prev < cfg.min_q_gain:
            reports[-1].discarded = True
            break
        q_prev = q
        with comm.phase("s2:merge"):
            lg, fine_ids, coarse_ids = merge_level(comm, lg, outcome.comm_of)
        level_maps.append((fine_ids, coarse_ids))
        level_boundary(fine_ids, coarse_ids, q)

    return level_maps, reports, q_prev


def distributed_louvain(
    graph: CSRGraph,
    n_ranks: int,
    config: DistributedConfig | None = None,
    faults=None,
    tracer=None,
    _ckpt_base=None,
) -> DistributedResult:
    """Run the full distributed Louvain pipeline on ``n_ranks`` simulated
    processors.

    ``faults`` optionally injects a deterministic fault schedule into the
    simulated runtime (:mod:`repro.runtime.faults`); ``tracer`` optionally
    attaches a :class:`~repro.runtime.tracing.TraceRecorder`, which records
    span/instant events on every rank (per-level convergence telemetry,
    per-collective timing) and fills ``result.stats.spans`` — pass the same
    recorder to :func:`~repro.runtime.tracing.save_trace` for a
    Perfetto-loadable timeline; ``_ckpt_base`` is the internal resume state
    threaded through by
    :func:`~repro.core.checkpoint.resume_distributed_louvain` so that
    checkpoints written by a resumed run stay expressed on the original
    vertices.

    Examples
    --------
    >>> from repro.graph.generators import karate_club
    >>> result = distributed_louvain(karate_club(), n_ranks=4)
    >>> result.modularity > 0.35
    True
    """
    cfg = config or DistributedConfig()
    t0 = time.perf_counter()
    if cfg.partitioning == "delegate":
        partition = delegate_partition(
            graph, n_ranks, d_high=cfg.d_high, rebalance=cfg.rebalance
        )
    else:
        partition = oned_partition(graph, n_ranks)
    t_part = time.perf_counter() - t0

    t1 = time.perf_counter()
    spmd = run_spmd(
        n_ranks,
        _worker,
        partition,
        cfg,
        _ckpt_base,
        timeout=cfg.timeout,
        faults=faults,
        tracer=tracer,
        backend=cfg.backend,
    )
    wall = time.perf_counter() - t1

    # compose level maps into a flat assignment on the original graph
    level_maps_all = [res[0] for res in spmd.results]
    n_levels = len(level_maps_all[0])
    flat: np.ndarray | None = None
    level_mappings: list[np.ndarray] = []
    for lvl in range(n_levels):
        ids = np.concatenate([lm[lvl][0] for lm in level_maps_all])
        coarse = np.concatenate([lm[lvl][1] for lm in level_maps_all])
        mapping = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64)
        mapping[ids] = coarse
        level_mappings.append(mapping)
        flat = mapping if flat is None else mapping[flat]
    assert flat is not None and not np.any(flat < 0), "incomplete level mapping"

    reports = spmd.results[0][1]  # Q histories are allreduced -> identical
    q_final = spmd.results[0][2]
    q_per_level = [r.q_final for r in reports if r.q_history and not r.discarded]

    if cfg.refine:
        from repro.core.modularity import modularity as compute_q
        from repro.core.refinement import split_disconnected_communities

        refined = split_disconnected_communities(graph, flat)
        if not np.array_equal(refined, flat):
            # refinement SPLITS communities, so it cannot be appended as a
            # coarsening level; the dendrogram collapses to the refined
            # flat assignment
            flat = refined
            q_final = compute_q(graph, flat, cfg.resolution)
            level_mappings = [flat.copy()]
            q_per_level = q_per_level + [float(q_final)]

    return DistributedResult(
        assignment=flat,
        modularity=float(q_final),
        modularity_per_level=q_per_level,
        levels=reports,
        n_levels=len(reports),
        stats=spmd.stats,
        partition=partition,
        wall_time=wall,
        partition_time=t_part,
        level_mappings=level_mappings,
    )


@dataclass
class RecoveryOutcome:
    """What :func:`run_with_recovery` observed while supervising a run."""

    result: DistributedResult
    attempts: int  # total runs, 1 == no failure occurred
    failures: list[str]  # one entry per caught SPMDError, in order
    resumed_levels: list[int]  # checkpoint level each attempt started from
    # (0 == from scratch); resumed_levels[0] is always 0

    @property
    def recovered(self) -> bool:
        return self.attempts > 1


def run_with_recovery(
    graph: CSRGraph,
    n_ranks: int,
    config: DistributedConfig | None = None,
    max_retries: int = 3,
    backoff: float = 0.0,
    faults=None,
    tracer=None,
) -> RecoveryOutcome:
    """Supervise a distributed Louvain run: on any :class:`SPMDError`
    (crashed rank, deadlock, detected corruption, ...), reload the latest
    per-level checkpoint and resume from it, up to ``max_retries`` times.

    Coarsening preserves modularity exactly, so a run resumed from any
    completed level converges to a valid final partition — per-level state
    is the natural recovery unit (Lu & Halappanavar).  If the config has no
    ``checkpoint_path``, a temporary one is used (and cleaned up);
    ``checkpoint_every_level`` defaults to 1 when unset so every level
    boundary is recoverable.

    ``faults`` (a :class:`~repro.runtime.faults.FaultPlan` or live
    ``FaultInjector``) is shared across all attempts: one-shot faults that
    already fired do not fire again on retry, exactly like a real rank that
    crashed once.  ``backoff`` sleeps ``backoff * 2**attempt`` seconds
    between attempts.  The final attempt's error is re-raised if every
    retry is exhausted.
    """
    from repro.runtime.faults import as_injector

    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    cfg = config or DistributedConfig()
    tmpdir: str | None = None
    if cfg.checkpoint_path is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-recovery-")
        cfg = replace(cfg, checkpoint_path=os.path.join(tmpdir, "recovery.npz"))
    if cfg.checkpoint_every_level <= 0:
        cfg = replace(cfg, checkpoint_every_level=1)

    injector = as_injector(faults)

    path = Path(cfg.checkpoint_path)
    failures: list[str] = []
    resumed_levels: list[int] = []
    try:
        for attempt in range(max_retries + 1):
            checkpoint = load_checkpoint(path) if path.exists() else None
            resumed_levels.append(
                checkpoint.levels_completed if checkpoint is not None else 0
            )
            try:
                if checkpoint is not None:
                    from repro.core.checkpoint import resume_distributed_louvain

                    result = resume_distributed_louvain(
                        graph, checkpoint, n_ranks, cfg,
                        faults=injector, tracer=tracer,
                    )
                else:
                    result = distributed_louvain(
                        graph, n_ranks, cfg, faults=injector, tracer=tracer
                    )
                return RecoveryOutcome(
                    result=result,
                    attempts=attempt + 1,
                    failures=failures,
                    resumed_levels=resumed_levels,
                )
            except SPMDError as exc:
                failures.append(f"attempt {attempt + 1}: {exc}")
                if attempt == max_retries:
                    raise
                if backoff > 0:
                    time.sleep(backoff * (2**attempt))
        raise AssertionError("unreachable")  # loop always returns or raises
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
