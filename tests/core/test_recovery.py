"""Tests for per-level checkpointing and crash recovery.

The acceptance contract: with a seeded FaultPlan crashing one rank at each
level boundary in turn, ``run_with_recovery`` on a 2-community SBM graph
completes every schedule and the recovered modularity matches the
fault-free run within 1e-9 — resume is level-exact, because coarsening is
modularity-invariant and the checkpoint holds the flat assignment of the
completed level.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DistributedConfig,
    distributed_louvain,
    modularity,
    run_with_recovery,
)
from repro.core.checkpoint import load_checkpoint
from repro.graph.generators.sbm import stochastic_block_model
from repro.runtime import SPMDError
from repro.runtime.faults import CrashFault, FaultInjector, FaultPlan
from tests.conftest import unpooled_children

TOL = 1e-9


@pytest.fixture(scope="module")
def sbm2():
    """Crisp 2-community SBM: every run converges to the planted split."""
    graph, _labels = stochastic_block_model(
        [30, 30], [[0.35, 0.02], [0.02, 0.35]], seed=5
    )
    return graph


@pytest.fixture(scope="module")
def baselines(sbm2):
    """Fault-free reference runs, one per rank count."""
    return {
        p: distributed_louvain(sbm2, p, DistributedConfig(d_high=64))
        for p in (2, 4)
    }


def _cfg(tmp_path, every: int = 1) -> DistributedConfig:
    return DistributedConfig(
        d_high=64,
        checkpoint_path=str(tmp_path / "ckpt.npz"),
        checkpoint_every_level=every,
    )


class TestPerLevelCheckpointing:
    def test_checkpoint_written_and_consistent(self, sbm2, tmp_path):
        cfg = _cfg(tmp_path)
        distributed_louvain(sbm2, 2, cfg)
        ckpt = load_checkpoint(tmp_path / "ckpt.npz")
        assert ckpt.n_vertices == sbm2.n_vertices
        assert ckpt.levels_completed >= 1
        # the persisted Q is the real modularity of the persisted assignment
        assert ckpt.modularity == pytest.approx(
            modularity(sbm2, ckpt.assignment), abs=TOL
        )

    def test_checkpointing_does_not_change_result(self, sbm2, tmp_path, baselines):
        res = distributed_louvain(sbm2, 2, _cfg(tmp_path))
        assert np.array_equal(res.assignment, baselines[2].assignment)
        assert res.modularity == baselines[2].modularity

    def test_every_k_cadence_skips_intermediate_levels(self, sbm2, tmp_path):
        cfg = _cfg(tmp_path, every=2)
        res = distributed_louvain(sbm2, 2, cfg)
        n_boundaries = len(res.level_mappings)
        ckpt = load_checkpoint(tmp_path / "ckpt.npz")
        # the deepest multiple of 2 reached, never an odd level
        assert ckpt.levels_completed == (n_boundaries // 2) * 2
        assert ckpt.modularity == pytest.approx(
            modularity(sbm2, ckpt.assignment), abs=TOL
        )

    def test_no_checkpoint_file_without_path(self, sbm2, tmp_path):
        distributed_louvain(sbm2, 2, DistributedConfig(d_high=64))
        assert list(tmp_path.iterdir()) == []


class TestRecoverySweep:
    """The ISSUE acceptance sweep: crash level x p in {2, 4}."""

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("crash_level", [0, 1, 2])
    def test_single_rank_crash_at_each_level_boundary(
        self, sbm2, baselines, tmp_path, p, crash_level
    ):
        baseline = baselines[p]
        n_boundaries = len(baseline.level_mappings)
        if crash_level >= n_boundaries:
            pytest.skip(f"run has only {n_boundaries} level boundaries")
        # vary the crashing rank with the level so every rank gets a turn
        plan = FaultPlan(
            [CrashFault(rank=crash_level % p, event=f"level:{crash_level}")]
        )
        outcome = run_with_recovery(
            sbm2, p, _cfg(tmp_path), max_retries=2, faults=plan
        )
        assert outcome.attempts == 2  # exactly one failure, one recovery
        assert outcome.recovered
        # the retry resumed from the boundary's checkpoint, not from scratch
        assert outcome.resumed_levels == [0, crash_level + 1]
        # resume is level-exact
        assert abs(outcome.result.modularity - baseline.modularity) < TOL
        result_q = modularity(sbm2, outcome.result.assignment)
        assert abs(outcome.result.modularity - result_q) < TOL
        assert outcome.result.assignment.shape == (sbm2.n_vertices,)

    @pytest.mark.parametrize("p", [2, 4])
    def test_mid_level_crash_resumes_from_previous_boundary(
        self, sbm2, baselines, tmp_path, p
    ):
        # superstep 40 lands inside level 1's clustering, past boundary 0
        plan = FaultPlan([CrashFault(rank=p - 1, superstep=40)])
        outcome = run_with_recovery(
            sbm2, p, _cfg(tmp_path), max_retries=2, faults=plan
        )
        assert outcome.recovered
        assert abs(outcome.result.modularity - baselines[p].modularity) < TOL


class TestProcessBackendRecovery:
    """Checkpoint recovery is backend-independent.

    On the process backend the checkpoint is written to disk by the rank-0
    child, and each child's final frame returns the faults it fired to the
    supervisor's live injector in the parent — so one-shot crash faults
    persist across attempts exactly as they do with threads, and the
    recovered run must match the thread-backend baseline.
    """

    @pytest.mark.parametrize("crash_level", [0, 1])
    def test_crash_at_level_boundary_recovers(
        self, sbm2, baselines, tmp_path, crash_level
    ):
        baseline = baselines[2]
        if crash_level >= len(baseline.level_mappings):
            pytest.skip("run has too few level boundaries")
        cfg = replace(_cfg(tmp_path), backend="process")
        plan = FaultPlan(
            [CrashFault(rank=crash_level % 2, event=f"level:{crash_level}")]
        )
        outcome = run_with_recovery(sbm2, 2, cfg, max_retries=2, faults=plan)
        assert outcome.attempts == 2
        assert outcome.recovered
        assert outcome.resumed_levels == [0, crash_level + 1]
        assert abs(outcome.result.modularity - baseline.modularity) < TOL
        result_q = modularity(sbm2, outcome.result.assignment)
        assert abs(outcome.result.modularity - result_q) < TOL

    def test_mid_level_crash_recovers_at_p4(self, sbm2, baselines, tmp_path):
        cfg = replace(_cfg(tmp_path), backend="process")
        plan = FaultPlan([CrashFault(rank=3, superstep=40)])
        outcome = run_with_recovery(sbm2, 4, cfg, max_retries=2, faults=plan)
        assert outcome.recovered
        assert abs(outcome.result.modularity - baselines[4].modularity) < TOL

    def test_no_leaked_resources_after_recovery(self, sbm2, tmp_path):
        from repro.graph.shm import active_segments, leaked_segment_files

        cfg = replace(_cfg(tmp_path), backend="process")
        plan = FaultPlan([CrashFault(rank=1, event="level:0")])
        outcome = run_with_recovery(sbm2, 2, cfg, max_retries=2, faults=plan)
        assert outcome.recovered
        assert unpooled_children() == ([], [])
        assert active_segments() == []
        assert leaked_segment_files() == []


class TestSupervisor:
    def test_fault_free_run_is_single_attempt(self, sbm2, baselines, tmp_path):
        outcome = run_with_recovery(sbm2, 2, _cfg(tmp_path))
        assert outcome.attempts == 1 and not outcome.recovered
        assert outcome.failures == []
        assert outcome.result.modularity == baselines[2].modularity

    def test_temporary_checkpoint_when_no_config(self, sbm2, baselines):
        # checkpoint_path stays None, so the supervisor must provision (and
        # clean up) a temporary checkpoint location by itself
        plan = FaultPlan([CrashFault(rank=0, event="level:0")])
        outcome = run_with_recovery(
            sbm2, 2, DistributedConfig(d_high=64), max_retries=1, faults=plan
        )
        assert outcome.recovered
        assert abs(outcome.result.modularity - baselines[2].modularity) < 1e-9

    @pytest.mark.parametrize(
        "kw", [{"max_retries": -1}, {"backoff": -0.5}], ids=["retries", "backoff"]
    )
    def test_negative_budget_rejected_before_any_run(self, sbm2, monkeypatch, kw):
        import repro.core.distributed as dist

        def never(*args, **kwargs):
            raise AssertionError("ran before the budget was validated")

        monkeypatch.setattr(dist.tempfile, "mkdtemp", never)
        monkeypatch.setattr(dist, "distributed_louvain", never)
        with pytest.raises(ValueError, match=next(iter(kw))):
            run_with_recovery(sbm2, 2, DistributedConfig(d_high=64), **kw)

    def test_retries_exhausted_reraises(self, sbm2, tmp_path):
        plan = FaultPlan([CrashFault(rank=0, event="level:0")])
        with pytest.raises(SPMDError):
            run_with_recovery(sbm2, 2, _cfg(tmp_path), max_retries=0, faults=plan)

    def test_two_crashes_two_recoveries(self, sbm2, baselines, tmp_path):
        plan = FaultPlan(
            [
                CrashFault(rank=0, event="level:0"),
                CrashFault(rank=1, event="level:1"),
            ]
        )
        outcome = run_with_recovery(
            sbm2, 2, _cfg(tmp_path), max_retries=3, faults=plan
        )
        assert outcome.attempts == 3
        assert outcome.resumed_levels == [0, 1, 2]
        assert abs(outcome.result.modularity - baselines[2].modularity) < TOL

    def test_live_injector_is_shared_across_attempts(self, sbm2, tmp_path):
        injector = FaultInjector(
            FaultPlan([CrashFault(rank=0, event="level:0")])
        )
        outcome = run_with_recovery(
            sbm2, 2, _cfg(tmp_path), max_retries=1, faults=injector
        )
        assert outcome.recovered
        assert any("crash" in entry for entry in injector.log)
