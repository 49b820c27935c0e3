"""Failure-injection tests: the simulated runtime under misbehaving ranks.

The engine's contract: any rank failure surfaces as a single
:class:`~repro.runtime.engine.SPMDError` identifying the original failing
rank, every other rank is released (no leaked threads, no hangs), and the
world is unusable afterwards only in documented ways.
"""

import os
import threading
import time

import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.runtime import (
    ChildCrashError,
    CollectiveMismatchError,
    CrashFault,
    DeadlockError,
    FaultPlan,
    InjectedCrash,
    SPMDError,
    Straggler,
    run_spmd,
)
from tests.conftest import unpooled_children


class TestRankCrashes:
    @pytest.mark.parametrize("crash_rank", [0, 1, 3])
    def test_crash_before_first_collective(self, crash_rank):
        def prog(c):
            if c.rank == crash_rank:
                raise RuntimeError("early death")
            c.allreduce(1)

        with pytest.raises(SPMDError) as exc:
            run_spmd(4, prog, timeout=2)
        assert exc.value.rank == crash_rank

    def test_crash_between_collectives(self):
        def prog(c):
            c.allreduce(1)
            c.barrier()
            if c.rank == 2:
                raise ValueError("mid-flight")
            c.allgather(c.rank)

        with pytest.raises(SPMDError) as exc:
            run_spmd(4, prog, timeout=2)
        assert isinstance(exc.value.original, ValueError)

    def test_crash_while_peer_waits_on_recv(self):
        def prog(c):
            if c.rank == 0:
                c.bcast(None, root=1)  # rank 1 dies instead of sending
            else:
                raise RuntimeError("no send for you")

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, prog, timeout=5)
        # the ORIGINAL failure is reported, not rank 0's secondary abort
        assert exc.value.rank == 1

    def test_multiple_simultaneous_crashes_report_lowest_rank(self):
        def prog(c):
            raise RuntimeError(f"rank {c.rank} dies")

        with pytest.raises(SPMDError) as exc:
            run_spmd(4, prog, timeout=2)
        assert exc.value.rank == 0

    def test_no_thread_leak_across_many_failures(self):
        before = threading.active_count()

        def prog(c):
            if c.rank == 1:
                raise RuntimeError("boom")
            c.barrier()

        for _ in range(5):
            with pytest.raises(SPMDError):
                run_spmd(3, prog, timeout=1)
        time.sleep(0.05)
        assert threading.active_count() <= before + 1


class TestProtocolViolations:
    def test_collective_order_divergence_raises(self):
        """Ranks disagreeing on which collective comes next must not
        exchange each other's payloads silently: every exchange generation
        is tagged with its operation, and a mismatch raises
        CollectiveMismatchError naming each rank's op."""

        def prog(c):
            if c.rank == 0:
                return c.allreduce(1)
            return c.allgather(1)

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, prog, timeout=2)
        assert isinstance(exc.value.original, CollectiveMismatchError)
        msg = str(exc.value.original)
        assert "allreduce" in msg and "allgather" in msg

    def test_same_collective_different_roots_raises(self):
        def prog(c):
            return c.bcast(c.rank, root=c.rank)  # each rank names itself root

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, prog, timeout=2)
        assert isinstance(exc.value.original, CollectiveMismatchError)
        assert "root=0" in str(exc.value.original)

    def test_missing_collective_participant_times_out(self):
        def prog(c):
            if c.rank == 0:
                c.allreduce(1)
            # rank 1 returns immediately

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, prog, timeout=0.3)
        # the precise contract: the lone participant's collective times out
        # as a DeadlockError that names the abandoned operation
        assert type(exc.value.original) is DeadlockError
        assert "allreduce" in str(exc.value.original)


# ---------------------------------------------------------------------------
# Backend parity: every fault kind behaves identically on both backends.
#
# Faults fire inside the rank on both backends; on the process backend the
# rank runs a worker-local copy of the injector.  The parity contract is
# that the backend is unobservable: same error type, same failing rank,
# same message text.  The SPMD programs are module-level so the process
# backend can ship them to spawned interpreters by reference.
# ---------------------------------------------------------------------------

BACKENDS = ["thread", "process"]


def _collective_loop(c, n=4):
    total = 0
    for i in range(n):
        total = c.allreduce(1)
        c.fault_event(f"step:{i}")
    return total


def _half_collective(c):
    if c.rank == 0:
        c.allreduce(1)
    # rank 1 returns immediately, abandoning the collective


class TestBackendFaultParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_at_superstep(self, backend):
        plan = FaultPlan([CrashFault(rank=1, superstep=2)])
        with pytest.raises(SPMDError) as exc:
            run_spmd(
                2, _collective_loop, timeout=15.0, faults=plan, backend=backend
            )
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, InjectedCrash)
        assert "superstep 2" in str(exc.value.original)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_at_named_event(self, backend):
        plan = FaultPlan([CrashFault(rank=0, event="step:1")])
        with pytest.raises(SPMDError) as exc:
            run_spmd(
                2, _collective_loop, timeout=15.0, faults=plan, backend=backend
            )
        assert exc.value.rank == 0
        assert isinstance(exc.value.original, InjectedCrash)
        assert "step:1" in str(exc.value.original)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_reports_original_rank_not_secondary_abort(self, backend):
        # ranks 1 and 2 are left blocked inside the collective when rank 0
        # dies; their secondary aborts must never mask the injected crash
        plan = FaultPlan([CrashFault(rank=0, superstep=1)])
        with pytest.raises(SPMDError) as exc:
            run_spmd(
                3, _collective_loop, timeout=15.0, faults=plan, backend=backend
            )
        assert exc.value.rank == 0
        assert isinstance(exc.value.original, InjectedCrash)

    def test_crash_report_identical_across_backends(self):
        reports = {}
        for backend in BACKENDS:
            plan = FaultPlan([CrashFault(rank=0, event="step:1")])
            with pytest.raises(SPMDError) as exc:
                run_spmd(
                    2, _collective_loop, timeout=15.0, faults=plan, backend=backend
                )
            reports[backend] = (
                exc.value.rank,
                type(exc.value.original).__name__,
                str(exc.value.original),
            )
        assert reports["thread"] == reports["process"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_straggler_slows_but_does_not_change_result(self, backend):
        plan = FaultPlan(
            [Straggler(rank=0, superstep=1, delay=0.25, n_supersteps=2)]
        )
        t0 = time.perf_counter()
        res = run_spmd(
            2, _collective_loop, timeout=20.0, faults=plan, backend=backend
        )
        assert res.results == [2, 2]
        assert time.perf_counter() - t0 >= 0.25

    def test_abandoned_collective_identical_message(self):
        msgs = {}
        for backend in BACKENDS:
            with pytest.raises(SPMDError) as exc:
                run_spmd(2, _half_collective, timeout=3.0, backend=backend)
            assert type(exc.value.original) is DeadlockError
            msgs[backend] = str(exc.value.original)
        assert "allreduce" in msgs["thread"]
        assert msgs["thread"] == msgs["process"]


# ---------------------------------------------------------------------------
# Process-only failure modes: a child interpreter dying without a word
# ---------------------------------------------------------------------------


def _hard_exit(c):
    c.barrier()
    if c.rank == 1:
        os._exit(3)  # no exception, no result frame, no stats flush
    c.allreduce(1)


class TestProcessChildDeath:
    def test_hard_killed_child_is_reported(self):
        with pytest.raises(SPMDError) as exc:
            run_spmd(3, _hard_exit, timeout=15.0, backend="process")
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, ChildCrashError)
        assert "died without reporting a result" in str(exc.value.original)

    def test_no_leaked_resources_after_hard_kill(self):
        from repro.graph.shm import active_segments, leaked_segment_files

        for _ in range(2):
            with pytest.raises(SPMDError):
                run_spmd(2, _hard_exit, timeout=15.0, backend="process")
        assert unpooled_children() == ([], [])
        assert active_segments() == []
        assert leaked_segment_files() == []


class TestProcessSupervisor:
    """The parent of a process-backend run only supervises, from the
    calling thread: it starts no thread, and it checks arguments before
    it takes any pooled worker."""

    def test_process_run_starts_no_parent_thread(self):
        run_spmd(2, _collective_loop, timeout=15.0, backend="process")
        before = set(threading.enumerate())
        seen: set = set()
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                seen.update(threading.enumerate())
                time.sleep(0.002)

        sampler = threading.Thread(target=sample, name="thread-sampler")
        sampler.start()
        plan = FaultPlan([Straggler(rank=0, superstep=1, delay=0.25)])
        try:
            t0 = time.perf_counter()
            res = run_spmd(
                2, _collective_loop, timeout=15.0, faults=plan, backend="process"
            )
            elapsed = time.perf_counter() - t0
        finally:
            stop.set()
            sampler.join()
        assert res.results == [2, 2]
        assert elapsed >= 0.2
        assert [t.name for t in seen - before - {sampler}] == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_bad_timeout_rejected_before_any_rank_starts(self, backend, timeout):
        from repro.runtime.process_backend import _POOL

        run_spmd(2, _collective_loop, timeout=15.0, backend="process")
        idle = _POOL.idle_pids()
        with pytest.raises(ValueError, match="timeout must be finite and > 0"):
            run_spmd(2, _collective_loop, timeout=timeout, backend=backend)
        assert _POOL.idle_pids() == idle
        assert unpooled_children() == ([], [])


class TestAlgorithmLevelFailures:
    def test_distributed_louvain_timeout_configurable(self, karate):
        # a tiny timeout on a real run must either finish (fast machine) or
        # raise SPMDError — never hang
        try:
            distributed_louvain(
                karate, 2, DistributedConfig(d_high=40, timeout=0.001)
            )
        except SPMDError:
            pass

    def test_partition_mismatch_raises(self, karate):
        """Feeding rank-local state from the wrong partition object fails
        loudly, not silently."""
        from repro.core.heuristics import get_heuristic
        from repro.core.local_clustering import LocalClustering
        from repro.partition import oned_partition

        part2 = oned_partition(karate, 2)

        def prog(c):
            # every rank wrongly uses rank 0's local graph
            lc = LocalClustering(
                c, part2.locals[0], get_heuristic("enhanced"), max_inner=3
            )
            lc.run()

        with pytest.raises(SPMDError):
            run_spmd(2, prog, timeout=5)
