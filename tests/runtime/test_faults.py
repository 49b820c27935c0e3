"""Tests for the deterministic fault-injection layer (`repro.runtime.faults`)."""

import os
import time

import pytest

from repro.runtime import SPMDError, run_spmd
from repro.runtime.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    Straggler,
)
from repro.runtime.process_backend import _POOL


class TestCrashFaults:
    @pytest.mark.parametrize("crash_rank", [0, 2])
    def test_crash_at_superstep(self, crash_rank):
        plan = FaultPlan([CrashFault(rank=crash_rank, superstep=1)])

        def prog(c):
            c.allreduce(1)  # superstep 0 completes everywhere
            c.allreduce(2)  # the victim dies before this one
            return "ok"

        with pytest.raises(SPMDError) as exc:
            run_spmd(4, prog, timeout=2, faults=plan)
        assert exc.value.rank == crash_rank
        assert isinstance(exc.value.original, InjectedCrash)

    def test_crash_at_named_event(self):
        plan = FaultPlan([CrashFault(rank=0, event="level:3")])

        def prog(c):
            c.barrier()
            c.fault_event("level:2")  # does not match
            c.fault_event("level:3")  # rank 0 dies here
            return "ok"

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, prog, timeout=2, faults=plan)
        assert exc.value.rank == 0
        assert "level:3" in str(exc.value.original)

    def test_crash_is_one_shot_across_runs(self):
        """A crashed rank does not crash again when the same injector is
        reused — the contract a retry-based recovery supervisor needs."""
        injector = FaultInjector(FaultPlan([CrashFault(rank=1, superstep=0)]))

        def prog(c):
            return c.allreduce(1)

        with pytest.raises(SPMDError):
            run_spmd(2, prog, timeout=2, faults=injector)
        res = run_spmd(2, prog, timeout=2, faults=injector)
        assert res.results == [2, 2]

    def test_fault_event_is_noop_without_injector(self):
        res = run_spmd(2, lambda c: c.fault_event("level:0") or "ok", timeout=2)
        assert res.results == ["ok", "ok"]


class TestStragglerFaults:
    def test_straggler_delays_but_preserves_results(self):
        plan = FaultPlan([Straggler(rank=0, superstep=0, delay=0.15)])

        def prog(c):
            return c.allreduce(c.rank + 1)

        t0 = time.perf_counter()
        res = run_spmd(3, prog, timeout=5, faults=plan)
        assert time.perf_counter() - t0 >= 0.12
        assert res.results == [6, 6, 6]

    def test_straggler_spans_supersteps(self):
        plan = FaultPlan(
            [Straggler(rank=1, superstep=0, delay=0.05, n_supersteps=2)]
        )

        def prog(c):
            c.barrier()
            c.barrier()
            return "ok"

        t0 = time.perf_counter()
        run_spmd(2, prog, timeout=5, faults=plan)
        assert time.perf_counter() - t0 >= 0.08


def _fault_log_program(c):
    c.barrier()
    c.barrier()
    c.allreduce(1)
    return os.getpid()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_same_plan_same_fault_log(backend):
    """Fault state is a function of the plan alone, on both backends: the
    same log from every run, a one-shot crash that stays fired when the
    injector is reused, and a straggler-only process run that returns its
    workers to the pool."""
    plan = FaultPlan(
        [
            CrashFault(rank=1, superstep=2),
            Straggler(rank=0, superstep=0, delay=0.01),
        ]
    )
    expected = [
        "crash rank=1 superstep=2",
        "straggle rank=0 superstep=0 delay=0.01",
    ]

    def run_once():
        injector = FaultInjector(plan)
        with pytest.raises(SPMDError) as exc:
            run_spmd(
                2, _fault_log_program, timeout=15, faults=injector, backend=backend
            )
        assert isinstance(exc.value.original, InjectedCrash)
        return injector

    injector = run_once()
    assert sorted(injector.log) == expected
    assert sorted(run_once().log) == expected
    # the crash fired once; only the straggler fires on the reused injector
    res = run_spmd(
        2, _fault_log_program, timeout=15, faults=injector, backend=backend
    )
    assert sorted(injector.log) == expected + [expected[1]]
    if backend == "process":
        assert set(res.results) <= set(_POOL.idle_pids())


class TestValidation:
    def test_crash_fault_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            CrashFault(rank=0)
        with pytest.raises(ValueError, match="exactly one"):
            CrashFault(rank=0, superstep=1, event="x")

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            CrashFault(rank=-1, superstep=0)
        with pytest.raises(ValueError):
            Straggler(rank=-1, superstep=0)

    @pytest.mark.parametrize(
        "make,match",
        [
            (lambda: CrashFault(rank=0, superstep=-1), "superstep must be >= 0"),
            (lambda: CrashFault(rank=0, event=""), "non-empty"),
            (lambda: Straggler(rank=0, superstep=-5), "superstep must be >= 0"),
            (lambda: Straggler(rank=0, superstep=0, delay=float("nan")), "finite"),
            (lambda: Straggler(rank=0, superstep=0, delay=float("inf")), "finite"),
            (lambda: Straggler(rank=0, superstep=0, delay=-0.1), "delay"),
            (lambda: Straggler(rank=0, superstep=0, n_supersteps=0), "n_supersteps"),
        ],
        ids=[
            "crash-step",
            "crash-event",
            "straggler-step",
            "straggler-nan",
            "straggler-inf",
            "straggler-delay",
            "straggler-span",
        ],
    )
    def test_fault_that_can_never_fire_rejected(self, make, match):
        """Each of these used to run cleanly and inject nothing, so a
        recovery test built on one passed vacuously."""
        with pytest.raises(ValueError, match=match):
            make()

    def test_unknown_fault_type_rejected(self):
        with pytest.raises(TypeError, match="unknown fault type"):
            FaultPlan(["crash rank 3"])

    def test_plan_rank_out_of_world_rejected(self):
        plan = FaultPlan([CrashFault(rank=5, superstep=0)])
        with pytest.raises(ValueError, match="rank 5"):
            run_spmd(2, lambda c: c.barrier(), timeout=2, faults=plan)
