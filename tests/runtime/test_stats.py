"""Tests for traffic/compute accounting."""

import numpy as np

from repro.runtime import payload_nbytes, run_spmd
from repro.runtime.stats import RankStats


class TestPayloadNbytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_none_free(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(5) == 8
        assert payload_nbytes(2.5) == 8

    def test_tuple_of_arrays(self):
        t = (np.zeros(4), np.zeros(2, dtype=np.int64))
        assert payload_nbytes(t) == 32 + 16

    def test_pickle_fallback(self):
        assert payload_nbytes({"k": [1, 2, 3]}) > 0


class TestRankStats:
    def test_phase_attribution(self):
        rs = RankStats(rank=0)
        rs.add_compute(10, "a")
        rs.add_compute(5, "b")
        rs.add_sent(100, "a")
        assert rs.compute_by_phase["a"] == 10
        assert rs.compute_by_phase["b"] == 5
        assert rs.total_compute == 15
        assert rs.total_bytes_sent == 100

    def test_superstep_closure(self):
        rs = RankStats(rank=0)
        rs.add_compute(10, "x")
        rs.close_superstep("x")
        rs.add_compute(20, "x")
        rs.close_superstep("x")
        assert len(rs.supersteps) == 2
        assert rs.supersteps[0].compute == 10
        assert rs.supersteps[1].compute == 20
        assert rs.total_collectives == 2


class TestRunAccounting:
    def test_compute_recorded_per_rank(self):
        def prog(c):
            c.add_compute(100 * (c.rank + 1))
            c.barrier()

        stats = run_spmd(3, prog, timeout=5).stats
        assert list(stats.compute_per_rank()) == [100, 200, 300]

    def test_alltoall_bytes_exclude_self(self):
        def prog(c):
            payloads = [np.zeros(8) for _ in range(c.size)]  # 64B each
            c.alltoall(payloads)

        stats = run_spmd(4, prog, timeout=5).stats
        # each rank sends to 3 peers
        assert all(b == 3 * 64 for b in stats.bytes_sent_per_rank())

    def test_allreduce_log_volume(self):
        def prog(c):
            c.allreduce(np.zeros(4))  # 32B payload

        stats = run_spmd(4, prog, timeout=5).stats
        # recursive doubling: log2(4) = 2 transfers of 32B
        assert all(b == 2 * 32 for b in stats.bytes_sent_per_rank())

    def test_phase_tagging_through_comm(self):
        def prog(c):
            with c.phase("work"):
                c.add_compute(7)
                c.allgather(1)
            c.add_compute(3)  # default phase "other"
            c.barrier()

        stats = run_spmd(2, prog, timeout=5).stats
        assert stats.phase_compute("work").tolist() == [7, 7]
        assert stats.phase_compute("other").tolist() == [3, 3]
        assert "work" in stats.phases()

    def test_superstep_count_uniform(self):
        def prog(c):
            c.allreduce(1)
            c.barrier()
            c.allgather(2)

        stats = run_spmd(3, prog, timeout=5).stats
        assert stats.n_supersteps() == 3
        for r in stats.ranks:
            assert len(r.supersteps) == 3

    def test_gather_bytes_counted_both_sides(self):
        def prog(c):
            c.gather(np.zeros(16), root=1)  # 128B from rank 0 to the root
            c.barrier()

        stats = run_spmd(2, prog, timeout=5).stats
        assert stats.ranks[0].total_bytes_sent == 128
        assert stats.ranks[1].total_bytes_recv == 128
        assert stats.ranks[1].total_bytes_sent == 0  # the root only receives


class TestSuperstepAccounting:
    """Regression tests for the superstep-log bookkeeping bugs."""

    def test_trailing_activity_flushed_at_exit(self):
        # compute after the LAST collective used to vanish from the
        # superstep log (the open superstep was never closed at exit)
        def prog(c):
            c.add_compute(10)
            c.barrier()
            c.add_compute(7)  # trailing work, no collective after it

        stats = run_spmd(3, prog, timeout=5).stats
        for r in stats.ranks:
            assert sum(s.compute for s in r.supersteps) == r.total_compute
            assert len(r.supersteps) == 2
            assert r.supersteps[-1].compute == 7

    def test_trailing_send_flushed_at_exit(self):
        # the last collective's bytes stay in its own superstep, and the
        # compute after it is flushed into a trailing one
        def prog(c):
            c.barrier()
            c.gather(np.zeros(4), root=1)  # 32B from rank 0
            c.add_compute(5)

        stats = run_spmd(2, prog, timeout=5).stats
        r0 = stats.ranks[0]
        assert sum(s.bytes_sent for s in r0.supersteps) == r0.total_bytes_sent
        assert [s.bytes_sent for s in r0.supersteps] == [0, 32, 0]
        assert r0.supersteps[-1].compute == 5

    def test_no_empty_superstep_when_program_ends_on_collective(self):
        # the exit flush must not append an all-zero superstep: exactly one
        # logged superstep per collective when the program ends on one
        def prog(c):
            c.allreduce(1)
            c.barrier()
            c.allgather(2)

        stats = run_spmd(3, prog, timeout=5).stats
        assert stats.n_supersteps() == 3
        for r in stats.ranks:
            assert len(r.supersteps) == r.total_collectives == 3

    def test_receive_only_superstep_gets_phase_tag(self):
        # a rank whose only activity between two barriers is receiving used
        # to log that superstep with an empty phase tag (add_recv never set
        # the open superstep's phase)
        def prog(c):
            c.barrier()
            with c.phase("pull"):
                c.gather(np.zeros(8), root=1)  # rank 1 only receives
            c.barrier()

        stats = run_spmd(2, prog, timeout=5).stats
        recv_steps = [s for s in stats.ranks[1].supersteps if s.bytes_recv > 0]
        assert recv_steps, "receiver logged no superstep with traffic"
        assert all(s.phase == "pull" for s in recv_steps)

    def test_phases_order_deterministic_and_sorted(self):
        # phases() used to reflect per-rank dict insertion order, which
        # differs across ranks and runs; it is now sorted and covers
        # phases seen only on the receive side
        def prog(c):
            if c.rank == 0:
                with c.phase("zeta"):
                    c.add_compute(1)
                with c.phase("alpha"):
                    c.add_compute(1)
            else:
                with c.phase("alpha"):
                    c.add_compute(1)
            c.barrier()

        stats = run_spmd(2, prog, timeout=5).stats
        assert stats.phases() == sorted(stats.phases())
        assert stats.phases() == ["alpha", "other", "zeta"]

    def test_phases_include_recv_only_phase(self):
        def prog(c):
            # one collective, entered under a different phase on each side
            with c.phase("push" if c.rank == 0 else "pull"):
                c.gather(b"abcd", root=1)
            c.barrier()

        stats = run_spmd(2, prog, timeout=5).stats
        assert "pull" in stats.phases()  # recv-side-only phase


class TestCommMatrix:
    def test_row_sums_match_sent_totals(self):
        def prog(c):
            with c.phase("w"):
                c.allreduce(np.zeros(8))
                c.alltoall([np.zeros(c.rank + 1) for _ in range(c.size)])
                c.allgather(np.zeros(2))
                c.gather(np.zeros(c.rank + 3), root=3)
                c.scatter(
                    [np.zeros(i) for i in range(c.size)] if c.rank == 1 else None,
                    root=1,
                )
            c.barrier()

        stats = run_spmd(4, prog, timeout=5).stats
        bytes_m, msgs_m = stats.comm_matrix()
        assert bytes_m.shape == (4, 4)
        assert np.allclose(bytes_m.sum(axis=1), stats.bytes_sent_per_rank())
        assert np.all(np.diag(bytes_m) == 0)  # own slots never hit the wire
        assert np.all(np.diag(msgs_m) == 0)
        assert bytes_m[0, 3] > 0 and bytes_m[1, 2] > 0  # gather, scatter

    def test_phase_filter(self):
        def prog(c):
            with c.phase("a"):
                c.allgather(np.zeros(4))
            with c.phase("b"):
                c.alltoall([np.zeros(2) for _ in range(c.size)])

        stats = run_spmd(3, prog, timeout=5).stats
        a_m, _ = stats.comm_matrix(phase="a")
        b_m, _ = stats.comm_matrix(phase="b")
        total_m, _ = stats.comm_matrix()
        assert np.allclose(a_m + b_m, total_m)
        assert np.allclose(a_m.sum(axis=1), stats.phase_bytes_sent("a"))

    def test_matrix_non_power_of_two_ranks(self):
        # tree-collective partner attribution must keep row sums exact for
        # any p, including non-powers of two
        def prog(c):
            c.allreduce(np.zeros(8))
            c.bcast(np.zeros(4), root=1)

        stats = run_spmd(5, prog, timeout=5).stats
        bytes_m, _ = stats.comm_matrix()
        assert np.allclose(bytes_m.sum(axis=1), stats.bytes_sent_per_rank())
        assert np.all(np.diag(bytes_m) == 0)
