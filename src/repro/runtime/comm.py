"""The thread-backend communicator.

:class:`SimComm` exposes an mpi4py-flavoured API to algorithm code running on
a simulated rank.  The full API surface — phase tagging, byte/message
accounting, tracing, fault injection, collective-order checking and every
collective — lives in the backend-independent
:class:`~repro.runtime.commbase.CommBase`; this module supplies only the
thread transport.  Collectives are implemented on top of a single
primitive — :meth:`_World.exchange` — in which every rank deposits its row
(one slot per destination) and its op tag into a generation-keyed buffer
and, after a barrier, reads its own column.  Because the program model is
SPMD, all ranks issue collectives in the same order, so per-rank generation
counters agree and the exchange is race-free.
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

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.barrier = threading.Barrier(size)
        self._lock = threading.Lock()
        # generation -> each rank's (op tag, row), None until it arrives
        self._coll_bufs: dict[int, list[Any]] = {}
        self._coll_reads: dict[int, int] = {}

    def abort(self) -> None:
        """Release all blocked ranks after a failure on one rank."""
        self.barrier.abort()

    # -- collective primitive -------------------------------------------
    def exchange(
        self, rank: int, gen: int, row: list[Any], op: str
    ) -> list[tuple[str | None, Any]] | None:
        """Every source's ``(op tag, payload for rank)``; None when the
        collective never completed."""
        with self._lock:
            buf = self._coll_bufs.setdefault(gen, [None] * self.size)
        buf[rank] = (op, row)
        try:
            self.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            # abort() can break the barrier while this thread is still
            # draining out of an already-released wait.  If every rank had
            # deposited its contribution the collective logically completed:
            # deliver it, and let the abort surface at the next operation.
            with self._lock:
                complete = all(entry is not None for entry in buf)
            if not complete:
                return None
        result = [(t, r[rank]) for t, r in buf]
        with self._lock:
            n = self._coll_reads.get(gen, 0) + 1
            if n == self.size:
                self._coll_bufs.pop(gen, None)
                self._coll_reads.pop(gen, None)
            else:
                self._coll_reads[gen] = n
        return result


class SimComm(CommBase):
    """Per-rank handle on the simulated (thread-backend) world.

    Algorithm code receives one of these as its first argument (exactly like
    an ``MPI.Comm``) and must only ever use its own instance.
    """

    def __init__(
        self,
        world: _World,
        rank: int,
        stats: RankStats,
        tracer=None,
        injector=None,
    ) -> None:
        super().__init__(rank, world.size, stats, tracer=tracer, injector=injector)
        self._world = world

    def _exchange(
        self, gen: int, row: list[Any], op: str
    ) -> list[tuple[str | None, Any]]:
        got = self._world.exchange(self.rank, gen, row, op)
        if got is None:
            raise self._never_completed(gen, op)
        return got
