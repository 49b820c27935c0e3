"""The thread-backend communicator.

:class:`SimComm` exposes an mpi4py-flavoured API to algorithm code running on
a simulated rank.  The full API surface — phase tagging, byte/message
accounting, tracing and every collective — lives in the
backend-independent :class:`~repro.runtime.commbase.CommBase`; this module
supplies only the thread transport.  Collectives are implemented on top of a
single primitive — :meth:`_World.exchange` — in which every rank deposits its
row (one slot per destination) into a generation-keyed buffer and, after a
barrier, reads its own column.  Because the program model is SPMD, all ranks
issue collectives in the same order, so per-rank generation counters agree
and the exchange is race-free.

Failure detection: every collective tags its exchange generation with the
operation name (and root, where applicable); if ranks disagree — i.e. the
SPMD program diverged from the single collective order — every rank raises
:class:`CollectiveMismatchError` naming each rank's operation, instead of
silently swapping payloads between mismatched collectives.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.runtime.commbase import (
    CollectiveMismatchError,
    CommBase,
    CommError,
    DeadlockError,
)
from repro.runtime.stats import RankStats

__all__ = [
    "SimComm",
    "CommError",
    "DeadlockError",
    "CollectiveMismatchError",
]


class _World:
    """State shared by all ranks of one SPMD run."""

    def __init__(self, size: int, timeout: float, injector=None) -> None:
        self.size = size
        self.timeout = timeout
        self.injector = injector  # FaultInjector | None (duck-typed)
        self.barrier = threading.Barrier(size)
        self._lock = threading.Lock()
        self._coll_bufs: dict[int, list[Any]] = {}
        self._coll_ops: dict[int, list[str | None]] = {}
        self._coll_reads: dict[int, int] = {}

    def abort(self) -> None:
        """Release all blocked ranks after a failure on one rank."""
        self.barrier.abort()

    # -- collective primitive -------------------------------------------
    def exchange(
        self, rank: int, gen: int, row: list[Any], op: str = ""
    ) -> list[Any]:
        with self._lock:
            buf = self._coll_bufs.setdefault(gen, [None] * self.size)
            ops = self._coll_ops.setdefault(gen, [None] * self.size)
        buf[rank] = row
        ops[rank] = op
        try:
            self.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            # abort() can break the barrier while this thread is still
            # draining out of an already-released wait.  If every rank had
            # deposited its contribution the collective logically completed:
            # deliver it, and let the abort surface at the next operation.
            with self._lock:
                complete = all(t is not None for t in ops)
            if not complete:
                raise DeadlockError(
                    f"rank {rank}: collective {op or '?'} (generation {gen}) "
                    "never completed (a peer failed or diverged from the SPMD "
                    "collective order)"
                ) from None
        result = [r[rank] for r in buf]
        op_tags = list(ops)
        with self._lock:
            n = self._coll_reads.get(gen, 0) + 1
            if n == self.size:
                self._coll_bufs.pop(gen, None)
                self._coll_ops.pop(gen, None)
                self._coll_reads.pop(gen, None)
            else:
                self._coll_reads[gen] = n
        if any(t != op_tags[0] for t in op_tags):
            detail = ", ".join(
                f"rank {r}: {t or '?'}" for r, t in enumerate(op_tags)
            )
            raise CollectiveMismatchError(
                f"rank {rank}: SPMD collective order diverged at generation "
                f"{gen} ({detail})"
            )
        return result


class SimComm(CommBase):
    """Per-rank handle on the simulated (thread-backend) world.

    Algorithm code receives one of these as its first argument (exactly like
    an ``MPI.Comm``) and must only ever use its own instance.
    """

    def __init__(
        self, world: _World, rank: int, stats: RankStats, tracer=None
    ) -> None:
        super().__init__(rank, world.size, stats, tracer=tracer)
        self._world = world

    # -- transport primitives -------------------------------------------
    def _exchange(self, gen: int, row: list[Any], op: str) -> list[Any]:
        return self._world.exchange(self.rank, gen, row, op=op)

    def _collective_hook(self, gen: int) -> None:
        injector = self._world.injector
        if injector is not None:
            injector.on_collective(self.rank, gen)

    def fault_event(self, name: str) -> None:
        injector = self._world.injector
        if injector is not None:
            injector.on_event(self.rank, name)
