"""Cross-backend conformance: thread and process backends are equivalent.

The process backend re-implements only the transport layer; everything
observable — final labels, modularity, per-rank per-phase byte/message/
collective counters, superstep logs — must be bit-identical to the thread
backend on the same input.  This grid pins that equivalence over every
runtime-relevant configuration axis of the distributed Louvain algorithm.

All SPMD programs here are module-level: the process backend ships them to
spawned interpreters by reference.
"""

import itertools

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.graph.generators import barabasi_albert
from repro.runtime import ProgramNotPicklableError, run_spmd
from tests.conftest import unpooled_children

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOL_Q = 1e-12


@pytest.fixture(scope="module")
def graph():
    """Small but structured: hubs + delegates + several merge levels."""
    return barabasi_albert(240, 3, seed=9)


def _phase_counters(stats):
    """The full per-rank per-phase accounting state, as plain dicts."""
    out = []
    for r in stats.ranks:
        out.append(
            {
                "sent": dict(r.bytes_sent_by_phase),
                "recv": dict(r.bytes_recv_by_phase),
                "msgs": dict(r.messages_sent_by_phase),
                "colls": dict(r.collectives_by_phase),
                "compute": dict(r.compute_by_phase),
                "supersteps": [
                    (s.phase, s.compute, s.bytes_sent, s.bytes_recv, s.messages)
                    for s in r.supersteps
                ],
            }
        )
    return out


def assert_equivalent(res_thread, res_process):
    assert np.array_equal(res_thread.assignment, res_process.assignment)
    assert abs(res_thread.modularity - res_process.modularity) < TOL_Q
    assert res_thread.n_levels == res_process.n_levels
    assert res_thread.modularity_per_level == pytest.approx(
        res_process.modularity_per_level, abs=TOL_Q
    )
    assert _phase_counters(res_thread.stats) == _phase_counters(res_process.stats)
    bt, mt = res_thread.stats.comm_matrix()
    bp, mp = res_process.stats.comm_matrix()
    assert np.array_equal(bt, bp) and np.array_equal(mt, mp)


GRID = list(
    itertools.product(
        [1, 2, 4],  # p
        ["gauss-seidel", "vectorized"],  # sweep_mode
    )
)


@pytest.mark.parametrize(
    "p,sweep_mode",
    GRID,
    ids=[f"p{p}-{sw}" for p, sw in GRID],
)
def test_conformance_grid(graph, p, sweep_mode):
    results = {}
    for backend in ("thread", "process"):
        cfg = DistributedConfig(
            backend=backend,
            sweep_mode=sweep_mode,
            d_high=32,
            timeout=60.0,
        )
        results[backend] = distributed_louvain(graph, p, cfg)
    assert_equivalent(results["thread"], results["process"])


# ---------------------------------------------------------------------------
# Primitive-level equivalence (cheap, every op in one program)
# ---------------------------------------------------------------------------


def _mixed_program(comm, base):
    """Exercises every communicator operation and accounting path."""
    with comm.phase("compute"):
        comm.add_compute(float(comm.rank + 1))
    total = comm.allreduce(np.arange(3, dtype=np.int64) + comm.rank)
    gathered = comm.allgather(comm.rank * 2 + base)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with comm.phase("ring"):
        # one payload to the right neighbour, nothing to anyone else
        row = [None] * comm.size
        row[right] = np.full(4, comm.rank, dtype=np.float64)
        ring = comm.alltoall(row)[left]
    rows = comm.alltoall(
        [np.full(2, comm.rank * 10 + i, dtype=np.int64) for i in range(comm.size)]
    )
    b = comm.bcast({"root": comm.rank} if comm.rank == 0 else None, root=0)
    red = comm.reduce(float(comm.rank), root=0)
    g = comm.gather(comm.rank, root=min(1, comm.size - 1))
    sc = comm.scatter(
        [f"to-{i}" for i in range(comm.size)] if comm.rank == 0 else None, root=0
    )
    last = comm.size - 1
    with comm.phase("tail"):
        comm.add_compute(0.5)
        got = comm.scatter(
            [i * 100 for i in range(comm.size)] if comm.rank == last else None,
            root=last,
        )
        # the root's own slot stays on the rank and is never traffic
        selfv = comm.gather(-comm.rank, root=0)
    comm.barrier()
    return (
        total.tolist(),
        gathered,
        float(ring.sum()),
        [r.tolist() for r in rows],
        b,
        red,
        g,
        sc,
        got,
        selfv,
    )


@pytest.mark.parametrize("p", [1, 2, 4])
def test_primitive_equivalence(p):
    runs = {
        backend: run_spmd(p, _mixed_program, 7, timeout=30.0, backend=backend)
        for backend in ("thread", "process")
    }
    assert runs["thread"].results == runs["process"].results
    assert _phase_counters(runs["thread"].stats) == _phase_counters(
        runs["process"].stats
    )


# ---------------------------------------------------------------------------
# The diagonal of a collective never leaves the rank
# ---------------------------------------------------------------------------


def _unpicklable_self_slot(comm):
    row = [comm.rank * 10 + i for i in range(comm.size)]
    row[comm.rank] = lambda: comm.rank  # cannot cross a process boundary
    out = comm.alltoall(row)
    return out[comm.rank](), [v for i, v in enumerate(out) if i != comm.rank]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_self_slot_is_never_shipped(backend):
    res = run_spmd(2, _unpicklable_self_slot, timeout=30.0, backend=backend)
    assert res.results == [(0, [10]), (1, [1])]


def test_link_frames_carry_only_the_destination_slot():
    import multiprocessing
    import socket

    from repro.runtime.process_backend import ProcComm, _Link
    from repro.runtime.stats import RankStats

    # rank 0 of a 3-rank world, with both peers played by this test
    ours, theirs = zip(socket.socketpair(), socket.socketpair())
    peers = {d: _Link(0, sock) for d, sock in zip((1, 2), theirs)}
    parent, child = multiprocessing.Pipe()
    comm = ProcComm(child, 0, 3, RankStats(rank=0), links=dict(zip((1, 2), ours)))
    try:
        for src, link in peers.items():
            link.put((0, "alltoall", f"{src}->0"))
            assert link.flush()
        row = [lambda: 0, "0->1", "0->2"]  # the own slot cannot be pickled
        out = comm.alltoall(row)
        assert out[0] is row[0]
        assert out[1:] == ["1->0", "2->0"]
        for dst, link in peers.items():
            frame = None
            while frame is None:
                frame = link.pull()
            assert frame == (0, "alltoall", f"0->{dst}")
    finally:
        comm.close()
        for sock in ours + theirs:
            sock.close()
        parent.close()
        child.close()


# ---------------------------------------------------------------------------
# Backend dispatch
# ---------------------------------------------------------------------------


def _rank_program(comm):
    return comm.rank


def test_env_default_backend_selects_process(monkeypatch):
    from repro.runtime.process_backend import _POOL, shutdown_rank_pool

    monkeypatch.setenv("REPRO_DEFAULT_BACKEND", "process")
    shutdown_rank_pool()
    res = run_spmd(2, _rank_program, timeout=30.0)
    assert res.results == [0, 1]
    # the run went through the process backend: its two workers are pooled
    assert len(_POOL.idle_pids()) == 2
    assert unpooled_children() == ([], [])


def test_env_default_backend_falls_back_for_closures(monkeypatch):
    monkeypatch.setenv("REPRO_DEFAULT_BACKEND", "process")
    with pytest.warns(RuntimeWarning, match="not .*picklable|falling back"):
        res = run_spmd(2, lambda c: c.rank, timeout=30.0)
    assert res.results == [0, 1]


def test_explicit_process_backend_rejects_closures():
    with pytest.raises(ProgramNotPicklableError):
        run_spmd(2, lambda c: c.rank, timeout=30.0, backend="process")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown SPMD backend"):
        run_spmd(2, _rank_program, backend="mpi")


def test_config_backend_flows_through(graph):
    cfg = DistributedConfig(backend="process", d_high=32, timeout=60.0)
    res = distributed_louvain(graph, 2, cfg)
    ref = distributed_louvain(graph, 2, DistributedConfig(d_high=32))
    assert np.array_equal(res.assignment, ref.assignment)


def test_no_leaked_resources_after_process_run():
    from repro.graph.shm import active_segments, leaked_segment_files

    run_spmd(2, _mixed_program, 0, timeout=30.0, backend="process")
    assert unpooled_children() == ([], [])
    assert active_segments() == []
    assert leaked_segment_files() == []


def _failing_program(comm):
    comm.barrier()
    if comm.rank == 1:
        raise ValueError("planted failure")
    comm.barrier()


def test_no_leaked_resources_after_aborted_process_run():
    from repro.graph.shm import active_segments, leaked_segment_files
    from repro.runtime import SPMDError

    with pytest.raises(SPMDError) as exc_info:
        run_spmd(3, _failing_program, timeout=15.0, backend="process")
    assert exc_info.value.rank == 1
    assert isinstance(exc_info.value.original, ValueError)
    assert unpooled_children() == ([], [])
    assert active_segments() == []
    assert leaked_segment_files() == []


# ---------------------------------------------------------------------------
# Tracer forwarding
# ---------------------------------------------------------------------------


def test_tracer_spans_forwarded_from_children(tmp_path):
    from repro.runtime.tracing import TraceRecorder, save_trace

    recorders = {}
    for backend in ("thread", "process"):
        rec = TraceRecorder()
        res = run_spmd(2, _mixed_program, 0, timeout=30.0, tracer=rec, backend=backend)
        recorders[backend] = (rec, res)
    (rec_t, res_t), (rec_p, res_p) = recorders["thread"], recorders["process"]
    # same spans, same names, same per-span byte payloads (durations differ)
    keyed = lambda spans: [  # noqa: E731
        (s.rank, s.name, s.cat, s.args.get("bytes_sent"), s.args.get("bytes_recv"))
        for s in spans
        if s.cat == "collective"
    ]
    assert sorted(keyed(res_t.stats.spans)) == sorted(keyed(res_p.stats.spans))
    out = tmp_path / "proc.trace.json"
    save_trace(out, res_p.stats, rec_p)
    assert out.stat().st_size > 0


def test_thread_backend_always_accepts_closures(monkeypatch):
    monkeypatch.delenv("REPRO_DEFAULT_BACKEND", raising=False)
    res = run_spmd(2, lambda c: c.allgather(c.rank), timeout=30.0)
    assert res.results == [[0, 1], [0, 1]]
