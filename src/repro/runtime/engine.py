"""SPMD engine: run one function on ``p`` ranks.

Two execution backends share the :func:`run_spmd` entry point:

* ``"thread"`` (default) — one daemon thread per rank in this interpreter,
  communicating through the in-process :class:`~repro.runtime.comm._World`;
* ``"process"`` — one spawned interpreter per rank with shared-memory graph
  segments and rank-to-rank collectives over socket links
  (:mod:`repro.runtime.process_backend`), for true multi-core execution.
  The interpreters are pooled: spawned by the first call, reused by later
  ones.

Both produce identical results, byte accounting and failure semantics; the
cross-backend conformance suite pins the equivalence.  :func:`run_spmd`
checks its arguments and binds the fault injector before any rank starts.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.comm import DeadlockError, SimComm, _World
from repro.runtime.faults import as_injector
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
        Per-collective deadlock timeout in seconds (finite, > 0).
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` (or a live
        :class:`~repro.runtime.faults.FaultInjector`, e.g. one carried
        across retries by a recovery supervisor) scheduling deterministic
        rank crashes and stragglers.
    tracer:
        Optional :class:`~repro.runtime.tracing.TraceRecorder`; every rank
        then emits span/instant events for phases and collectives, and the
        run's completed spans are attached to ``result.stats.spans``.
        ``None`` (default) traces nothing and adds no measurable overhead.

    Returns
    -------
    SPMDResult
        ``results[r]`` is rank ``r``'s return value; ``stats`` holds the
        measured per-rank counters.

    Raises
    ------
    ValueError
        Before any rank starts: ``n_ranks < 1``, a ``timeout`` that is not
        finite and > 0, or a fault plan naming a rank outside the world.
    SPMDError
        If any rank raises, after the world is aborted so no thread leaks:
        the lowest-numbered rank's primary failure, wrapped; secondary
        aborts (collectives that never completed) only when no rank failed
        on its own.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    # a nan or infinite deadline would fail inside the ranks, after the
    # process backend took its pooled workers
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be finite and > 0, got {timeout}")
    resolved, explicit = resolve_backend(backend)
    injector = as_injector(faults)
    if injector is not None:
        injector.bind(n_ranks)
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
                injector=injector,
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
    world = _World(n_ranks, timeout=timeout)
    rank_stats = [RankStats(rank=r) for r in range(n_ranks)]
    results: list[Any] = [None] * n_ranks
    errors: list[BaseException | None] = [None] * n_ranks

    def worker(rank: int) -> None:
        rank_tracer = tracer.rank(rank) if tracer is not None else None
        comm = SimComm(
            world, rank, rank_stats[rank], tracer=rank_tracer, injector=injector
        )
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

    _raise_first_failure(errors)
    stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        stats.spans = tracer.span_records()
    return SPMDResult(results=results, stats=stats)


def _raise_first_failure(errors: list[BaseException | None]) -> None:
    """Raise :class:`SPMDError` for a failed run, else return.

    A primary failure wins over the secondary aborts it caused in other
    ranks (broken barriers, collectives that never completed); among
    equals, the lowest rank wins."""
    secondary = (threading.BrokenBarrierError, DeadlockError)
    failed = [
        (isinstance(exc, secondary), rank, exc)
        for rank, exc in enumerate(errors)
        if exc is not None
    ]
    if failed:
        _, rank, exc = min(failed, key=lambda f: f[:2])
        raise SPMDError(rank, exc) from exc
