"""MPI transport: run the SPMD algorithm code on a REAL mpi4py communicator.

:class:`MPIAdapter` is a :class:`~repro.runtime.commbase.CommBase` transport,
like the thread and process backends, so the identical worker functions run
unchanged on an actual cluster with the full communicator API — phase
tagging, byte/compute accounting, tracing, every collective and
collective-order mismatch detection::

    from mpi4py import MPI
    from repro.runtime.mpi_adapter import MPIAdapter
    from repro.core.local_clustering import LocalClustering
    ...
    comm = MPIAdapter(MPI.COMM_WORLD)
    LocalClustering(comm, my_local_graph, heuristic).run()

Every collective is one lowercase (pickle-based) ``alltoall`` whose slots
carry ``(op, payload)``, so a rank that diverged from the SPMD collective
order raises :class:`~repro.runtime.commbase.CollectiveMismatchError`
(checked in :class:`~repro.runtime.commbase.CommBase`) instead of silently
swapping payloads.  The adapter is duck-typed: anything exposing
``Get_rank/Get_size/alltoall`` works, which is how the test suite exercises
it without an MPI installation.

Real MPI collectives have no deadline, so the world timeout is ignored, and
the adapter attaches no fault injector.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.commbase import CommBase
from repro.runtime.stats import RankStats

__all__ = ["MPIAdapter"]


class MPIAdapter(CommBase):
    """CommBase transport over an mpi4py-style communicator."""

    def __init__(self, mpi_comm, stats: RankStats | None = None, tracer=None) -> None:
        rank = int(mpi_comm.Get_rank())
        super().__init__(
            rank,
            int(mpi_comm.Get_size()),
            stats if stats is not None else RankStats(rank=rank),
            tracer=tracer,
        )
        self._mpi = mpi_comm

    def _exchange(
        self, gen: int, row: list[Any], op: str
    ) -> list[tuple[str | None, Any]]:
        return self._mpi.alltoall([(op, v) for v in row])
