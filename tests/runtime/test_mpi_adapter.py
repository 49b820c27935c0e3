"""Tests for the MPI transport, exercised through a duck-typed fake.

The fake (``tests/runtime/fake_mpi.py``) implements the lowercase mpi4py
calls the transport uses over threads, so the adapter's plumbing and its
conformance with the thread backend — results, per-rank per-phase
counters, supersteps and communication matrices — are tested without an
MPI installation.
"""

import numpy as np
import pytest

from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.partition import delegate_partition
from repro.runtime import CollectiveMismatchError, SPMDError, run_spmd
from tests.runtime.fake_mpi import run_fake_mpi
from tests.runtime.test_backend_equivalence import _mixed_program, _phase_counters


def assert_same_accounting(a, b):
    assert _phase_counters(a) == _phase_counters(b)
    ba, ma = a.comm_matrix()
    bb, mb = b.comm_matrix()
    assert np.array_equal(ba, bb) and np.array_equal(ma, mb)


class TestAdapterCollectives:
    def test_allreduce_and_allgather(self):
        def prog(c):
            return c.allreduce(c.rank + 1), c.allgather(c.rank * 2)

        res = run_fake_mpi(3, prog).results
        assert all(out == (6, [0, 2, 4]) for out in res)

    def test_alltoall(self):
        def prog(c):
            return c.alltoall([f"{c.rank}->{i}" for i in range(c.size)])

        res = run_fake_mpi(3, prog).results
        for r, got in enumerate(res):
            assert got == [f"{s}->{r}" for s in range(3)]

    def test_bcast_gather_scatter(self):
        def prog(c):
            b = c.bcast("root" if c.rank == 0 else None, root=0)
            g = c.gather(c.rank, root=1)
            s = c.scatter([10, 20, 30] if c.rank == 0 else None, root=0)
            c.barrier()
            return b, g, s

        res = run_fake_mpi(3, prog).results
        assert res[0] == ("root", None, 10)
        assert res[1] == ("root", [0, 1, 2], 20)
        assert res[2] == ("root", None, 30)

    def test_stats_accounted(self):
        def prog(c):
            with c.phase("work"):
                c.add_compute(11)
                c.allgather(np.zeros(4))

        st = run_fake_mpi(2, prog).stats.ranks[0]
        assert st.compute_by_phase["work"] == 11
        assert st.bytes_sent_by_phase["work"] == 32  # one 32B peer payload
        assert st.total_collectives == 1

    def test_empty_payloads_and_self_sends_are_free(self):
        def prog(c):
            c.allgather(np.zeros(0))
            row = [np.zeros(0)] * c.size
            row[c.rank] = "me"  # a send to self: delivered, never traffic
            return c.alltoall(row)[c.rank]

        res = run_fake_mpi(2, prog)
        assert res.results == ["me", "me"]
        for st in res.stats.ranks:
            assert st.total_bytes_sent == 0
            assert st.total_messages_sent == 0
        assert_same_accounting(res.stats, run_spmd(2, prog, timeout=30.0).stats)


class TestConformanceWithThreadBackend:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_mixed_program(self, p):
        fake = run_fake_mpi(p, _mixed_program, 7)
        sim = run_spmd(p, _mixed_program, 7, timeout=30.0, backend="thread")
        assert fake.results == sim.results
        assert_same_accounting(fake.stats, sim.stats)

    def test_unpicklable_self_slot_stays_local(self):
        def prog(c):
            return c.alltoall(
                [(lambda: c.rank) if i == c.rank else i for i in range(c.size)]
            )

        res = run_fake_mpi(2, prog).results
        assert [row[r]() for r, row in enumerate(res)] == [0, 1]

    def test_mismatch_error_matches_thread_backend(self):
        def prog(c):
            if c.rank == 1:
                c.allgather(c.rank)
            else:
                c.allreduce(1)

        with pytest.raises(CollectiveMismatchError) as fake_exc:
            run_fake_mpi(3, prog)
        with pytest.raises(SPMDError) as sim_exc:
            run_spmd(3, prog, timeout=30.0)
        # same text up to the reporting rank's prefix
        strip = lambda exc: str(exc).split(": ", 1)[1]  # noqa: E731
        assert strip(fake_exc.value) == strip(sim_exc.value.original)

    def test_collective_spans_match_thread_backend(self):
        from repro.runtime.tracing import TraceRecorder

        keyed = lambda rec: sorted(  # noqa: E731
            (s.rank, s.name, s.args.get("bytes_sent"), s.args.get("bytes_recv"))
            for s in rec.span_records(cat="collective")
        )
        rec_fake, rec_sim = TraceRecorder(), TraceRecorder()
        run_fake_mpi(2, _mixed_program, 0, tracer=rec_fake)
        run_spmd(2, _mixed_program, 0, timeout=30.0, tracer=rec_sim)
        assert keyed(rec_fake) and keyed(rec_fake) == keyed(rec_sim)


class TestAdapterRunsRealAlgorithm:
    def test_local_clustering_through_adapter(self, web_graph):
        """The actual Algorithm-2 code runs unchanged over the adapter and
        reproduces the thread backend's labels, modularity and counters."""
        part = delegate_partition(web_graph, 3, d_high=40)

        def worker_any(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                max_inner=30,
            )
            return lc.run()

        fake = run_fake_mpi(3, worker_any)
        sim = run_spmd(3, worker_any, timeout=60)
        for f, s in zip(fake.results, sim.results):
            assert np.array_equal(f.comm_of, s.comm_of)
            assert f.q_final == s.q_final
            assert f.q_history == s.q_history
        assert_same_accounting(fake.stats, sim.stats)
