"""Deterministic fault injection for the simulated runtime.

The paper's scalability claims rest on runs across tens of thousands of
cores, where ranks crash and straggle.  This module lets tests and
experiments schedule such faults *exactly*: a :class:`FaultPlan` is a
declarative list of fault descriptions, and a :class:`FaultInjector` is the stateful object the communicator calls into
at its hook points (collective entry and named events).

Determinism contract: the same plan injected into the same SPMD program
produces the identical fault sequence — crash sites and straggler delays
are functions of the plan and the ranks' collective order, never of thread
timing.  This is what makes recovery tests reproducible.

Fault lifecycle: every fault except :class:`Straggler` is **one-shot** —
once fired it never fires again, even if the same injector is reused for a
retried run.  That is exactly the behaviour a recovery supervisor needs: a
rank that crashed once does not crash again on restart, so
``run_with_recovery`` can pass the same injector to every attempt (see
:func:`repro.core.distributed.run_with_recovery`).

Where faults fire: inside the rank, on every backend.  Every fault names
exactly one rank, so a rank needs only its own copy of the injector's
state.  The thread backend hands every rank the caller's injector.  The
process backend ships the plan and the fired set with each rank's job,
builds a rank-local injector in the worker, and :meth:`FaultInjector.merge`
folds what each rank fired and logged back into the caller's injector from
the rank's final frame.

Hook points (called by :class:`~repro.runtime.commbase.CommBase`):

* ``on_collective(rank, superstep)`` — before the rank's ``superstep``-th
  collective; may sleep (:class:`Straggler`) or raise
  (:class:`CrashFault` with ``superstep=``).
* ``on_event(rank, name)`` — at a named synchronisation point emitted by
  algorithm code via ``comm.fault_event(name)`` (the distributed Louvain
  driver emits ``"level:<k>"`` after each completed level); may raise
  (:class:`CrashFault` with ``event=``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "CrashFault",
    "Straggler",
    "as_injector",
]


class InjectedFault(RuntimeError):
    """Base class for errors raised by the fault injector."""


class InjectedCrash(InjectedFault):
    """A rank was killed by a scheduled :class:`CrashFault`."""


# ---------------------------------------------------------------------------
# Fault descriptions (immutable, declarative)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Kill ``rank`` either before its ``superstep``-th collective (0-based)
    or at the named :meth:`~repro.runtime.comm.SimComm.fault_event`.
    Exactly one of ``superstep`` / ``event`` must be given."""

    rank: int
    superstep: int | None = None
    event: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"CrashFault: bad rank {self.rank}")
        if (self.superstep is None) == (self.event is None):
            raise ValueError(
                "CrashFault requires exactly one of superstep= or event="
            )
        # a trigger no rank can reach would make the plan inject nothing
        if self.superstep is not None and self.superstep < 0:
            raise ValueError(
                f"CrashFault: superstep must be >= 0, got {self.superstep}"
            )
        if self.event == "":
            raise ValueError("CrashFault: event must be a non-empty name")


@dataclass(frozen=True)
class Straggler:
    """Slow ``rank`` down: sleep ``delay`` seconds before each collective in
    supersteps ``[superstep, superstep + n_supersteps)``.  Not one-shot."""

    rank: int
    superstep: int
    delay: float = 0.05
    n_supersteps: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"Straggler: bad rank {self.rank}")
        if self.superstep < 0:
            raise ValueError(
                f"Straggler: superstep must be >= 0, got {self.superstep}"
            )
        # nan would pass a plain >= 0 check and then never sleep
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(
                f"Straggler: delay must be finite and >= 0, got {self.delay}"
            )
        if self.n_supersteps < 1:
            raise ValueError(
                f"Straggler: n_supersteps must be >= 1, got {self.n_supersteps}"
            )


_FAULT_TYPES = (CrashFault, Straggler)


class FaultPlan:
    """A deterministic schedule of faults.

    >>> plan = FaultPlan([CrashFault(rank=1, superstep=3)])
    >>> run_spmd(4, program, faults=plan)      # doctest: +SKIP
    """

    def __init__(self, faults=()) -> None:
        self.faults: tuple = tuple(faults)
        for f in self.faults:
            if not isinstance(f, _FAULT_TYPES):
                raise TypeError(
                    f"unknown fault type {type(f).__name__!r}; expected one "
                    f"of {[t.__name__ for t in _FAULT_TYPES]}"
                )

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"

    def max_rank(self) -> int:
        """Highest rank referenced by any fault (-1 for an empty plan)."""
        return max((f.rank for f in self.faults), default=-1)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    Thread-safe (hooks are called concurrently from every simulated rank).
    Reusable across runs: fired one-shot faults stay fired, so a supervisor
    retrying a failed run with the same injector sees the remaining faults
    only.
    ``log`` records every fired fault as a human-readable string.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: set[int] = set()
        self.log: list[str] = []

    # -- setup ----------------------------------------------------------
    def bind(self, n_ranks: int) -> None:
        """Validate the plan against a world size (called by ``run_spmd``)."""
        top = self.plan.max_rank()
        if top >= n_ranks:
            raise ValueError(
                f"fault plan references rank {top} but the world has only "
                f"{n_ranks} ranks"
            )

    @property
    def fired(self) -> frozenset[int]:
        """Plan indices of the one-shot faults that have fired."""
        with self._lock:
            return frozenset(self._fired)

    def merge(self, fired, log) -> None:
        """Adopt the fired one-shot faults and log lines of a copy of this
        injector that ran in a rank process."""
        with self._lock:
            self._fired.update(fired)
            self.log.extend(log)

    def _fire(self, index: int, description: str) -> None:
        self._fired.add(index)
        self.log.append(description)

    # -- hooks ----------------------------------------------------------
    def on_collective(self, rank: int, superstep: int) -> None:
        """Called before the rank's ``superstep``-th collective."""
        delay = 0.0
        crash: CrashFault | None = None
        with self._lock:
            for i, f in enumerate(self.plan.faults):
                if isinstance(f, CrashFault):
                    if (
                        i not in self._fired
                        and f.rank == rank
                        and f.superstep == superstep
                    ):
                        self._fire(i, f"crash rank={rank} superstep={superstep}")
                        crash = f
                        break
                elif isinstance(f, Straggler):
                    if (
                        f.rank == rank
                        and f.superstep <= superstep < f.superstep + f.n_supersteps
                    ):
                        delay += f.delay
                        self.log.append(
                            f"straggle rank={rank} superstep={superstep} "
                            f"delay={f.delay}"
                        )
        if crash is not None:
            raise InjectedCrash(
                f"rank {rank}: injected crash at superstep {superstep}"
            )
        if delay > 0:
            import time

            time.sleep(delay)

    def on_event(self, rank: int, name: str) -> None:
        """Called at a named fault event (``comm.fault_event(name)``)."""
        crash = False
        with self._lock:
            for i, f in enumerate(self.plan.faults):
                if (
                    isinstance(f, CrashFault)
                    and i not in self._fired
                    and f.rank == rank
                    and f.event == name
                ):
                    self._fire(i, f"crash rank={rank} event={name}")
                    crash = True
                    break
        if crash:
            raise InjectedCrash(f"rank {rank}: injected crash at event {name!r}")


def as_injector(faults) -> FaultInjector | None:
    """The injector to run for ``faults``: ``None`` (no faults), a
    :class:`FaultPlan` (a fresh injector) or a live :class:`FaultInjector`
    (itself, so its one-shot state carries over)."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
