"""The process backend's peer links: collectives go rank to rank.

Every collective is a direct exchange over one socket pair per rank pair,
set up by the parent for each run.  These tests pin what that transport
must keep from the thread backend: bit-identical results for payloads
larger than a socket buffer, the same failure reports (now without waiting
for the timeout when a peer is gone), and no resource growth across runs.

All SPMD programs here are module-level: the process backend ships them to
spawned interpreters by reference.
"""

import hashlib
import os
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    ChildCrashError,
    CollectiveMismatchError,
    DeadlockError,
    SPMDError,
    run_spmd,
)
from repro.runtime.process_backend import _POOL
from tests.runtime.test_backend_equivalence import _phase_counters

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# 8 MiB + 8 bytes per slot: larger than any default socket buffer
BIG = (1 << 20) + 1


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _big_alltoall(comm):
    row = [
        np.random.default_rng(100 * comm.rank + dst).random(BIG)
        for dst in range(comm.size)
    ]
    out = comm.alltoall(row)
    return [_digest(a) for a in out], comm.allreduce(float(out[0][0]))


@pytest.mark.parametrize("p", [3, 4])
def test_large_alltoall_matches_thread_backend(p):
    runs = {
        backend: run_spmd(p, _big_alltoall, timeout=60.0, backend=backend)
        for backend in ("thread", "process")
    }
    assert runs["thread"].results == runs["process"].results
    assert _phase_counters(runs["thread"].stats) == _phase_counters(
        runs["process"].stats
    )
    expected = [
        _digest(np.random.default_rng(100 * src + 0).random(BIG))
        for src in range(p)
    ]
    assert runs["process"].results[0][0] == expected


# ---------------------------------------------------------------------------
# Raw and pickled frames in one run
# ---------------------------------------------------------------------------


def _mixed_frames(comm):
    """Collectives whose payloads take both wire paths, some in one row:
    raw arrays and tuples of arrays, and pickled objects, non-contiguous
    views and big-endian arrays."""
    r, p = comm.rank, comm.size
    rng = np.random.default_rng(r)
    out = []
    out.append(comm.alltoall([np.arange(r + d, dtype=np.int64) for d in range(p)]))
    out.append(comm.alltoall([
        (rng.random(3 + d), np.full((2, d), r, dtype=np.int8), np.array(d > r))
        for d in range(p)
    ]))
    out.append(comm.alltoall([
        np.arange(10.0)[::2] if d % 2 else {"from": r, "to": [d] * d}
        for d in range(p)
    ]))
    out.append(comm.alltoall([np.zeros(0, dtype=np.int64)] * p))
    out.append(comm.allgather(np.full((2, 3), r, dtype=np.float32)))
    out.append(comm.allgather(np.arange(4, dtype=">i4") + r))
    out.append(comm.allreduce(np.arange(5, dtype=np.uint16) * r))
    out.append(comm.allreduce(0.5 * r))
    out.append(comm.bcast([r, "list", None], root=1))
    out.append(comm.bcast(np.array(7.5), root=2))
    out.append(comm.gather((np.arange(r + 1), f"rank {r}"), root=0))
    out.append(comm.scatter(
        [np.arange(d + 2, dtype=np.uint32) for d in range(p)] if r == 2 else None,
        root=2,
    ))
    out.append(comm.reduce(np.ones(3, dtype=np.complex128) * r, root=1))
    frames = (getattr(comm, "frames", None), getattr(comm, "raw_frames", None))
    return repr(out), frames


def test_mixed_raw_and_pickled_frames_match_thread_backend():
    runs = {
        backend: run_spmd(3, _mixed_frames, timeout=60.0, backend=backend)
        for backend in ("thread", "process")
    }
    thread, process = runs["thread"], runs["process"]
    assert [res[0] for res in thread.results] == [res[0] for res in process.results]
    assert _phase_counters(thread.stats) == _phase_counters(process.stats)
    for got, want in zip(process.stats.comm_matrix(), thread.stats.comm_matrix()):
        assert np.array_equal(got, want)
    # every collective sends one frame to each of the two peers; both
    # paths were taken
    for frames, raw in (res[1] for res in process.results):
        assert frames == 2 * 13
        assert 0 < raw < frames


# ---------------------------------------------------------------------------
# A peer that is gone releases the blocked ranks at once
# ---------------------------------------------------------------------------


def _leaves_big_alltoall(comm):
    if comm.rank == comm.size - 1:
        return None  # the others block sending it more than a buffer holds
    comm.alltoall([np.zeros(BIG) for _ in range(comm.size)])


def _exits_during_allreduce(comm):
    comm.barrier()
    if comm.rank == 1:
        os._exit(3)  # no exception, no final frame, no stats flush
    comm.allreduce(1)


def test_peer_returning_early_releases_blocked_ranks():
    with pytest.raises(SPMDError) as ref:
        run_spmd(3, _leaves_big_alltoall, timeout=1.0, backend="thread")
    t0 = time.perf_counter()
    with pytest.raises(SPMDError) as exc:
        run_spmd(3, _leaves_big_alltoall, timeout=60.0, backend="process")
    assert time.perf_counter() - t0 < 20.0
    assert exc.value.rank == ref.value.rank == 0
    assert type(exc.value.original) is DeadlockError
    assert "never completed" in str(exc.value.original)
    assert str(exc.value.original) == str(ref.value.original)


def test_peer_exiting_mid_collective_releases_blocked_ranks():
    t0 = time.perf_counter()
    with pytest.raises(SPMDError) as exc:
        run_spmd(3, _exits_during_allreduce, timeout=60.0, backend="process")
    assert time.perf_counter() - t0 < 20.0
    assert exc.value.rank == 1
    assert isinstance(exc.value.original, ChildCrashError)
    assert "died without reporting a result" in str(exc.value.original)


# ---------------------------------------------------------------------------
# Op-tag mismatch
# ---------------------------------------------------------------------------


def _diverging(comm):
    if comm.rank == 1:
        return comm.bcast("x", root=1)
    if comm.rank == 2:
        return comm.allgather(comm.rank)
    return comm.allreduce(1)


def test_mismatch_at_p3_reports_thread_identical_text():
    reports = {}
    for backend in ("thread", "process"):
        with pytest.raises(SPMDError) as exc:
            run_spmd(3, _diverging, timeout=30.0, backend=backend)
        assert isinstance(exc.value.original, CollectiveMismatchError)
        reports[backend] = (exc.value.rank, str(exc.value.original))
    assert reports["thread"] == reports["process"]
    assert "rank 0: allreduce, rank 1: bcast(root=1), rank 2: allgather" in (
        reports["thread"][1]
    )


# ---------------------------------------------------------------------------
# No resource growth across runs
# ---------------------------------------------------------------------------


def _open_fds(pid="self") -> int:
    return len(os.listdir(f"/proc/{pid}/fd"))


def _few_collectives(comm):
    comm.alltoall([np.arange(4) + comm.rank for _ in range(comm.size)])
    comm.allreduce(comm.rank)
    comm.barrier()
    return os.getpid()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_repeated_runs_leak_no_threads_or_fds():
    pids = run_spmd(3, _few_collectives, timeout=30.0, backend="process").results
    threads = threading.active_count()
    fds = _open_fds()
    worker_fds = {pid: _open_fds(pid) for pid in pids}
    for _ in range(49):
        res = run_spmd(3, _few_collectives, timeout=30.0, backend="process")
        assert res.results == pids  # the same pooled workers every time
    assert threading.active_count() == threads
    assert _open_fds() == fds
    assert {pid: _open_fds(pid) for pid in pids} == worker_fds
    assert set(pids) <= set(_POOL.idle_pids())
