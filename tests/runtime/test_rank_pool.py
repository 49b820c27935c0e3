"""The process backend's persistent rank pool.

Reusing a worker must be invisible: the same job gives the same results,
counters, comm matrices and trace spans on fresh and on reused workers.
An idle worker that receives anything but a job or an exit leaves.  A
failed run never returns its workers to the pool, concurrent runs get
disjoint workers, a worker unmaps each job's arena before it is pooled
again, and an interpreter that exits without calling
``shutdown_rank_pool`` leaves no worker behind.

All SPMD programs here are module-level: the process backend ships them to
spawned interpreters by reference.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import DistributedConfig, distributed_louvain
from repro.graph.generators import barabasi_albert
from repro.graph.shm import SHM_PREFIX, SharedArena, leaked_segment_files
from repro.runtime import CrashFault, FaultPlan, SPMDError, run_spmd
from repro.runtime.process_backend import _POOL, shutdown_rank_pool
from repro.runtime.tracing import TraceRecorder
from tests.conftest import unpooled_children
from tests.runtime.test_backend_equivalence import _mixed_program, _phase_counters

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def empty_pool():
    """Every test starts from an empty pool, so pids it sees are its own."""
    shutdown_rank_pool()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pid(comm):
    return os.getpid()


def _on_worker(comm, program, *args):
    return os.getpid(), program(comm, *args)


def _collective_spans(stats):
    return sorted(
        (s.rank, s.name, s.cat, s.args.get("bytes_sent"), s.args.get("bytes_recv"))
        for s in stats.spans
        if s.cat == "collective"
    )


def _observed(stats):
    """Everything a run reports besides its results and wall-clock times."""
    nbytes, msgs = stats.comm_matrix()
    return (
        _phase_counters(stats),
        nbytes.tolist(),
        msgs.tolist(),
        _collective_spans(stats),
    )


# ---------------------------------------------------------------------------
# Reuse is invisible to results
# ---------------------------------------------------------------------------


def test_reused_workers_reproduce_mixed_program():
    runs = []
    for _ in range(3):
        res = run_spmd(
            2,
            _on_worker,
            _mixed_program,
            7,
            timeout=30.0,
            tracer=TraceRecorder(),
            backend="process",
        )
        pids = sorted(pid for pid, _ in res.results)
        runs.append((pids, [r for _, r in res.results], _observed(res.stats)))
    (pids1, results1, observed1) = runs[0]
    assert len(set(pids1)) == 2
    for pids, results, observed in runs[1:]:
        assert pids == pids1  # reused, not respawned
        assert results == results1
        assert observed == observed1
    assert observed1[3]  # collective spans were traced


def test_reused_workers_reproduce_distributed_louvain():
    graph = barabasi_albert(240, 3, seed=9)
    cfg = DistributedConfig(backend="process", d_high=32, timeout=60.0)
    runs = []
    for _ in range(3):
        res = distributed_louvain(graph, 2, cfg, tracer=TraceRecorder())
        runs.append((_POOL.idle_pids(), res))
    pids1, ref = runs[0]
    assert len(pids1) == 2
    for pids, res in runs[1:]:
        # the pool held exactly run 1's workers, and the run needed both
        assert pids == pids1
        assert np.array_equal(res.assignment, ref.assignment)
        assert res.modularity == ref.modularity
        assert res.modularity_per_level == ref.modularity_per_level
        assert _observed(res.stats) == _observed(ref.stats)


def test_reused_worker_imports_like_a_fresh_spawn(tmp_path, monkeypatch):
    run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    pids = _POOL.idle_pids()
    # a module the workers could not import when they were spawned
    (tmp_path / "pool_probe_module.py").write_text(
        "import os\n\n\ndef where(comm):\n    return os.getcwd()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    import pool_probe_module

    res = run_spmd(2, pool_probe_module.where, timeout=30.0, backend="process")
    assert res.results == [os.getcwd()] * 2
    assert _POOL.idle_pids() == pids


def test_unknown_frame_retires_an_idle_worker():
    """Between jobs a worker accepts only ``job`` and ``exit``; anything
    else is a protocol error, and the worker leaves instead of carrying
    the frame into its next job."""
    run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    pids = _POOL.idle_pids()
    victim = next(w for w in _POOL._idle if w.proc.pid == pids[0])
    victim.conn.send(("p2p", 1, 5, "stale"))
    victim.proc.join(timeout=10.0)
    assert not victim.proc.is_alive()
    res = run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    assert pids[0] not in res.results  # the dead worker was not reused
    assert pids[1] in res.results
    assert unpooled_children() == ([], [])


# ---------------------------------------------------------------------------
# Failure policy and concurrency
# ---------------------------------------------------------------------------


def _planted_error(comm):
    comm.barrier()
    if comm.rank == 1:
        raise ValueError("planted failure")
    comm.barrier()


def _hard_exit(comm):
    comm.barrier()
    if comm.rank == 1:
        os._exit(3)
    comm.allreduce(1)


def _collective_loop(comm):
    for _ in range(4):
        comm.allreduce(1)


def _abandoned_collective(comm):
    if comm.rank == 1:
        comm.allreduce(1)  # rank 0 has returned and closed its links


FAILURES = {
    "planted-error": (_planted_error, None),
    "os-exit": (_hard_exit, None),
    "injected-crash": (_collective_loop, FaultPlan([CrashFault(rank=1, superstep=1)])),
    "abandoned-collective": (_abandoned_collective, None),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failed_run_stops_all_its_workers(case):
    program, plan = FAILURES[case]
    run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    workers = _POOL.idle_pids()
    with pytest.raises(SPMDError):
        run_spmd(2, program, timeout=15.0, faults=plan, backend="process")
    assert _POOL.idle_pids() == []
    assert [pid for pid in workers if _alive(pid)] == []
    assert unpooled_children() == ([], [])
    after = run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    assert len(set(after.results)) == 2
    assert not set(after.results) & set(workers)


def test_bad_config_leaves_pool_intact():
    """A misspelled config fails before any rank runs, so the failure rule
    never fires and the idle workers survive."""
    run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    workers = _POOL.idle_pids()
    graph = barabasi_albert(60, 2, seed=1)
    with pytest.raises(ValueError):
        distributed_louvain(
            graph, 2, DistributedConfig(sweep_mode="vectorised", backend="process")
        )
    assert _POOL.idle_pids() == workers
    assert len(workers) == 2


def _overlapping(comm, delay):
    comm.barrier()
    time.sleep(delay)  # both runs are inside their jobs at once
    comm.barrier()
    return os.getpid()


def test_concurrent_runs_get_disjoint_workers():
    run_spmd(4, _worker_pid, timeout=30.0, backend="process")
    warm = set(_POOL.idle_pids())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            start = threading.Barrier(2)
            results, errors = {}, []

            def client(name):
                start.wait()
                try:
                    results[name] = run_spmd(
                        2, _overlapping, 0.2, timeout=20.0, backend="process"
                    ).results
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            a, b = set(results[0]), set(results[1])
            assert len(a) == len(b) == 2
            assert not a & b
            assert a | b == warm  # taken from the pool, nothing respawned
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Worker memory hygiene
# ---------------------------------------------------------------------------


def test_arena_close_waits_for_every_view():
    arena = SharedArena.create([np.arange(4096.0)])
    try:
        view = arena.view(0)[10:]  # a view of a view pins the block too
        assert not arena.close()
        assert view[0] == 10.0  # still mapped
        del view
        assert arena.close()
    finally:
        arena.unlink()


def _array_sum(comm, arr):
    return float(arr.sum())


def _array_sum_in_cycle(comm, arr):
    box = {"view": arr}
    box["self"] = box  # only a collection frees this view
    return float(box["view"].sum())


_KEPT = []


def _array_sum_kept(comm, arr):
    _KEPT.append(arr)  # module state outlives the job in this worker
    return float(arr.sum())


def _maps_arena(pid: int) -> bool:
    return SHM_PREFIX in Path(f"/proc/{pid}/maps").read_text()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("program", [_array_sum, _array_sum_in_cycle])
def test_idle_workers_map_no_arena(program):
    arr = np.arange(2**20 + 512, dtype=np.float64)  # a little over 8 MiB
    res = run_spmd(2, program, arr, timeout=30.0, backend="process")
    assert res.results == [float(arr.sum())] * 2
    idle = _POOL.idle_pids()
    assert len(idle) == 2
    assert [pid for pid in idle if _maps_arena(pid)] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_worker_that_cannot_unmap_is_not_pooled():
    run_spmd(2, _worker_pid, timeout=30.0, backend="process")
    workers = _POOL.idle_pids()
    arr = np.arange(2**20 + 512, dtype=np.float64)
    res = run_spmd(2, _array_sum_kept, arr, timeout=30.0, backend="process")
    assert res.results == [float(arr.sum())] * 2  # the run itself succeeds
    assert _POOL.idle_pids() == []
    assert [pid for pid in workers if _alive(pid)] == []
    assert unpooled_children() == ([], [])


# ---------------------------------------------------------------------------
# Interpreter exit
# ---------------------------------------------------------------------------

_ONE_JOB = """\
import os

import numpy as np

from repro.runtime import run_spmd


def worker_pid(comm, arr):
    return os.getpid()


if __name__ == "__main__":
    res = run_spmd(2, worker_pid, np.zeros(4096), backend="process")
    print(os.getpid(), *res.results)
"""


def test_exit_without_shutdown_leaves_nothing(tmp_path):
    script = tmp_path / "one_job.py"
    script.write_text(_ONE_JOB)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    parent, *workers = (int(x) for x in proc.stdout.split())
    assert len(set(workers)) == 2 and parent not in workers
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in workers if _alive(pid)] == []
    prefix = f"{SHM_PREFIX}{parent:x}-"
    assert [n for n in leaked_segment_files() if n.startswith(prefix)] == []
