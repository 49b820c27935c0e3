"""A duck-typed mpi4py communicator backed by threads, for testing the MPI
transport (:class:`repro.runtime.mpi_adapter.MPIAdapter`) without an MPI
installation.

The fake implements only the calls the transport uses — ``Get_rank``,
``Get_size`` and ``alltoall`` — and, like
the lowercase mpi4py API, pickles every payload on its way between ranks.
"""

import pickle
import threading

from repro.runtime.engine import SPMDResult
from repro.runtime.mpi_adapter import MPIAdapter
from repro.runtime.stats import RankStats, RunStats

TIMEOUT = 20.0


class _FakeWorld:
    """State shared by the FakeMPIComm instances of one run."""

    def __init__(self, size):
        self.size = size
        self.barrier = threading.Barrier(size)
        self.lock = threading.Lock()
        self.rows = {}  # generation -> one pickled row per rank
        self.reads = {}  # generation -> ranks that have read their column


class FakeMPIComm:
    def __init__(self, world, rank):
        self._w = world
        self._rank = rank
        self._gen = 0

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._w.size

    def alltoall(self, sendobj):
        w = self._w
        gen = self._gen
        self._gen += 1
        with w.lock:
            rows = w.rows.setdefault(gen, [None] * w.size)
        rows[self._rank] = [pickle.dumps(v) for v in sendobj]
        w.barrier.wait(timeout=TIMEOUT)
        out = [pickle.loads(row[self._rank]) for row in rows]
        with w.lock:
            w.reads[gen] = w.reads.get(gen, 0) + 1
            if w.reads[gen] == w.size:
                del w.rows[gen], w.reads[gen]
        return out


def run_fake_mpi(p, fn, *args, tracer=None):
    """Run ``fn(comm, *args)`` on ``p`` MPIAdapter ranks over the fake.

    Mirrors ``run_spmd``: trailing activity is flushed into the superstep
    log, and the first non-secondary rank error is re-raised as is.
    """
    world = _FakeWorld(p)
    stats = [RankStats(rank=r) for r in range(p)]
    results = [None] * p
    errors = [None] * p

    def worker(r):
        try:
            rank_tracer = tracer.rank(r) if tracer is not None else None
            comm = MPIAdapter(FakeMPIComm(world, r), stats[r], tracer=rank_tracer)
            results[r] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001
            errors[r] = exc
            world.barrier.abort()
        finally:
            stats[r].flush()

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failures = [e for e in errors if e is not None]
    failures.sort(key=lambda e: isinstance(e, threading.BrokenBarrierError))
    if failures:
        raise failures[0]
    return SPMDResult(results=results, stats=RunStats(ranks=stats))
