"""SPMD engine: run one function on ``p`` ranks.

Two execution backends share the :func:`run_spmd` entry point:

* ``"thread"`` (default) — one daemon thread per rank in this interpreter,
  communicating through the in-process :class:`~repro.runtime.comm._World`;
* ``"process"`` — one spawned interpreter per rank with shared-memory graph
  segments, rank-to-rank collectives over socket links and parent-routed
  point-to-point messages (:mod:`repro.runtime.process_backend`), for true
  multi-core execution.
  The interpreters are pooled: spawned by the first call, reused by later
  ones.

Both produce identical results, byte accounting and failure semantics; the
cross-backend conformance suite pins the equivalence.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.comm import SimComm, _World
from repro.runtime.stats import RankStats, RunStats

__all__ = ["run_spmd", "SPMDError", "SPMDResult", "resolve_backend"]

_BACKENDS = ("thread", "process")


def resolve_backend(backend: str | None) -> tuple[str, bool]:
    """Resolve a backend request to a concrete backend name.

    ``None``/``"auto"`` defer to the ``REPRO_DEFAULT_BACKEND`` environment
    variable (default ``"thread"``).  Returns ``(name, explicit)`` where
    ``explicit`` is False when the choice came from the environment — an
    environment-selected process backend falls back to threads for programs
    that cannot be pickled, instead of erroring.
    """
    if backend in (None, "auto"):
        name = os.environ.get("REPRO_DEFAULT_BACKEND", "thread") or "thread"
        explicit = False
    else:
        name = backend
        explicit = True
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {name!r}; expected one of {_BACKENDS}"
        )
    return name, explicit


class SPMDError(RuntimeError):
    """A simulated rank raised; carries the failing rank and original error."""

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


@dataclass
class SPMDResult:
    """Return values and measured statistics of one SPMD run."""

    results: list[Any]
    stats: RunStats


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    faults: Any = None,
    checksums: bool = False,
    tracer: Any = None,
    backend: str | None = None,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``n_ranks`` simulated ranks.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks (threads or processes).
    fn:
        The SPMD program.  Its first positional argument is the rank's
        communicator (:class:`~repro.runtime.comm.SimComm` on the thread
        backend, a contract-identical
        :class:`~repro.runtime.process_backend.ProcComm` on the process
        backend).  Must be picklable (module-level) for the process
        backend.
    backend:
        ``"thread"`` | ``"process"`` | ``"auto"``/``None`` (defer to
        ``REPRO_DEFAULT_BACKEND``, default thread).  The process backend
        runs each rank in its own spawned interpreter for true multi-core
        execution; results, byte accounting and failure semantics are
        identical across backends.  Its interpreters persist between
        calls: idle ones are reused, only the shortfall is spawned, and
        a call in which any rank fails stops all of its interpreters
        instead of reusing them
        (:func:`~repro.runtime.process_backend.shutdown_rank_pool` stops
        the idle ones).
    timeout:
        Per-blocking-operation deadlock timeout in seconds.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` (or a live
        :class:`~repro.runtime.faults.FaultInjector`, e.g. one carried
        across retries by a recovery supervisor) scheduling deterministic
        rank crashes, stragglers, and p2p message faults.
    checksums:
        Verify a CRC32 of every point-to-point payload at ``recv``;
        corruption raises :class:`~repro.runtime.comm.CorruptionError`.
    tracer:
        Optional :class:`~repro.runtime.tracing.TraceRecorder`; every rank
        then emits span/instant events for phases, collectives and p2p
        traffic, and the run's completed spans are attached to
        ``result.stats.spans``.  ``None`` (default) traces nothing and adds
        no measurable overhead.

    Returns
    -------
    SPMDResult
        ``results[r]`` is rank ``r``'s return value; ``stats`` holds the
        measured per-rank counters.

    Raises
    ------
    SPMDError
        If any rank raises, the lowest-numbered failing rank's exception is
        re-raised (wrapped), after the world is aborted so no thread leaks.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    resolved, explicit = resolve_backend(backend)
    if resolved == "process":
        from repro.runtime.process_backend import (
            ProgramNotPicklableError,
            run_spmd_process,
        )

        try:
            return run_spmd_process(
                n_ranks,
                fn,
                *args,
                timeout=timeout,
                faults=faults,
                checksums=checksums,
                tracer=tracer,
                **kwargs,
            )
        except ProgramNotPicklableError:
            if explicit:
                raise
            # REPRO_DEFAULT_BACKEND=process is a blanket preference; local
            # closures (common in tests) can only run on threads
            warnings.warn(
                "REPRO_DEFAULT_BACKEND=process but the SPMD program is not "
                "picklable; falling back to the thread backend",
                RuntimeWarning,
                stacklevel=2,
            )
    injector = None
    if faults is not None:
        from repro.runtime.faults import FaultInjector

        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        injector.bind(n_ranks)
    world = _World(n_ranks, timeout=timeout, injector=injector, checksums=checksums)
    rank_stats = [RankStats(rank=r) for r in range(n_ranks)]
    results: list[Any] = [None] * n_ranks
    errors: list[BaseException | None] = [None] * n_ranks

    def worker(rank: int) -> None:
        rank_tracer = tracer.rank(rank) if tracer is not None else None
        comm = SimComm(world, rank, rank_stats[rank], tracer=rank_tracer)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not leak threads
            errors[rank] = exc
            world.abort()
        finally:
            # flush trailing activity (work after the rank's last
            # collective) so the superstep log agrees with the per-phase
            # totals — also on failure, for post-mortem traces
            rank_stats[rank].flush()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for rank, exc in enumerate(errors):
        if exc is not None and not _is_secondary_abort(exc):
            raise SPMDError(rank, exc) from exc
    # only secondary aborts (or nothing) left; if any error remains, surface it
    for rank, exc in enumerate(errors):
        if exc is not None:
            raise SPMDError(rank, exc) from exc
    stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        stats.spans = tracer.span_records()
    return SPMDResult(results=results, stats=stats)


def _is_secondary_abort(exc: BaseException) -> bool:
    """True for errors caused by another rank's failure (broken barriers)."""
    from repro.runtime.comm import DeadlockError

    return isinstance(exc, (threading.BrokenBarrierError, DeadlockError))
