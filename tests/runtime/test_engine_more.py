"""Additional engine behaviour tests."""

import numpy as np
import pytest

from repro.runtime import SPMDError, run_spmd
from repro.runtime.engine import SPMDResult


class TestArgPassing:
    def test_positional_and_keyword_args(self):
        def prog(comm, base, *, scale=1):
            return (base + comm.rank) * scale

        res = run_spmd(3, prog, 10, scale=2, timeout=5)
        assert res.results == [20, 22, 24]

    def test_shared_object_visible_to_all_ranks(self):
        """Ranks share the process: passing a partition object by reference
        is the supported pattern."""
        payload = {"data": np.arange(5)}

        def prog(comm):
            return int(payload["data"][comm.rank])

        res = run_spmd(3, prog, timeout=5)
        assert res.results == [0, 1, 2]


class TestResultStructure:
    def test_result_type_and_ordering(self):
        res = run_spmd(4, lambda c: c.rank * 100, timeout=5)
        assert isinstance(res, SPMDResult)
        assert res.results == [0, 100, 200, 300]
        assert res.stats.size == 4
        assert [r.rank for r in res.stats.ranks] == [0, 1, 2, 3]

    def test_none_returns_preserved(self):
        res = run_spmd(2, lambda c: None, timeout=5)
        assert res.results == [None, None]


class TestConcurrencyStress:
    def test_many_ranks(self):
        """64 simulated ranks exchange collectives without deadlock."""

        def prog(comm):
            total = comm.allreduce(1)
            got = comm.alltoall(list(range(comm.size)))
            return total, got[0]

        res = run_spmd(64, prog, timeout=60)
        assert all(out == (64, comm_rank) for comm_rank, out in enumerate(res.results))

    def test_repeated_worlds_do_not_interfere(self):
        def prog(comm, tag):
            return comm.allreduce(tag)

        for tag in range(5):
            res = run_spmd(3, prog, tag, timeout=5)
            assert res.results == [3 * tag] * 3


class TestFailureHandling:
    def test_exception_propagates_with_rank(self):
        def prog(c):
            if c.rank == 1:
                raise RuntimeError("kaboom")
            c.barrier()

        with pytest.raises(SPMDError) as exc:
            run_spmd(3, prog, timeout=10.0)
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, RuntimeError)

    def test_diverged_collective_order_detected(self):
        def prog(c):
            if c.rank == 0:
                c.allgather(1)
            # rank 1 never joins the collective -> broken barrier
            return None

        with pytest.raises(SPMDError):
            run_spmd(2, prog, timeout=0.5)

    def test_no_thread_leak_after_failure(self):
        import threading

        before = threading.active_count()

        def prog(c):
            if c.rank == 0:
                raise ValueError("die")
            c.barrier()

        with pytest.raises(SPMDError):
            run_spmd(4, prog, timeout=1.0)
        # all simulated ranks must have exited
        assert threading.active_count() <= before + 1

    def test_n_ranks_must_be_positive(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda c: None)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def prog(c):
            acc = c.allreduce(c.rank * 3.7)
            vals = c.allgather(acc + c.rank)
            return vals

        a = run_spmd(4, prog, timeout=10.0).results
        b = run_spmd(4, prog, timeout=10.0).results
        assert a == b


def _rank_of(comm):
    return comm.rank


def test_checksums_option_is_gone():
    """The point-to-point layer and its CRC32 envelopes are deleted, so
    nothing consumes ``checksums`` any more: ``run_spmd`` forwards it to the
    program like any other keyword, and the config has no such field."""
    from repro.core import DistributedConfig

    with pytest.raises(SPMDError) as exc:
        run_spmd(2, _rank_of, timeout=10.0, checksums=True)
    assert isinstance(exc.value.original, TypeError)
    assert "checksums" in str(exc.value.original)
    with pytest.raises(TypeError):
        DistributedConfig(checksums=True)
