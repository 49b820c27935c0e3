"""Tests for parallel local clustering (Algorithm 2)."""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.community_table import CommunitySnapshot
from repro.core.heuristics import MoveHeuristic, get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.modularity import modularity
from repro.partition import delegate_partition, oned_partition
from repro.runtime import SPMDError, run_spmd
from tests.core.agg_oracle import ScalarSyncClustering, canonical_pairs
from tests.core.numpy_kernels import numpy_path, packed

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def run_level(graph, p, partition_kind="delegate", d_high=None, heuristic="enhanced",
              max_inner=50):
    if partition_kind == "1d":
        part = oned_partition(graph, p)
    else:
        part = delegate_partition(graph, p, d_high=d_high)

    def worker(comm):
        lc = LocalClustering(
            comm, part.locals[comm.rank], get_heuristic(heuristic), max_inner=max_inner
        )
        outcome = lc.run()
        return outcome

    res = run_spmd(p, worker, timeout=60)
    return part, res.results, res.stats


def flat_assignment(part, outcomes):
    """Assemble the global community labels from per-rank outcomes."""
    n = part.locals[0].n_global
    full = np.full(n, -1, dtype=np.int64)
    for lg, out in zip(part.locals, outcomes):
        owned = lg.global_ids[: lg.n_owned]
        full[owned] = out.comm_of[: lg.n_owned]
        full[lg.hub_global_ids] = out.comm_of[lg.n_owned : lg.n_rows]
    assert not np.any(full < 0)
    return full


class TestAggregateSync:
    def test_reported_q_is_exact(self, web_graph):
        """The allreduced Q must equal an independent recomputation from
        the assembled global assignment — validates the whole owner
        aggregation protocol."""
        part, outcomes, _ = run_level(web_graph, 4, d_high=40)
        assignment = flat_assignment(part, outcomes)
        assert np.isclose(
            outcomes[0].q_final, modularity(web_graph, assignment)
        )

    def test_q_identical_on_all_ranks(self, web_graph):
        _, outcomes, _ = run_level(web_graph, 4, d_high=40)
        for out in outcomes[1:]:
            assert out.q_history == outcomes[0].q_history

    def test_hub_labels_identical_on_all_ranks(self, web_graph):
        part, outcomes, _ = run_level(web_graph, 4, d_high=30)
        assert part.hub_global_ids.size > 0
        lg0 = part.locals[0]
        hub_labels0 = outcomes[0].comm_of[lg0.n_owned : lg0.n_rows]
        for lg, out in zip(part.locals[1:], [o for o in outcomes[1:]]):
            assert np.array_equal(
                out.comm_of[lg.n_owned : lg.n_rows], hub_labels0
            )

    def test_ghost_labels_match_owners(self, web_graph):
        part, outcomes, _ = run_level(web_graph, 4, d_high=40)
        assignment = flat_assignment(part, outcomes)
        for lg, out in zip(part.locals, outcomes):
            ghosts = lg.global_ids[lg.n_rows :]
            assert np.array_equal(out.comm_of[lg.n_rows :], assignment[ghosts])


class TestConvergence:
    @pytest.mark.parametrize("heuristic", ["enhanced", "minlabel"])
    def test_converges_within_budget(self, web_graph, heuristic):
        _, outcomes, _ = run_level(web_graph, 4, d_high=40, heuristic=heuristic)
        assert outcomes[0].converged

    def test_improves_over_singletons(self, web_graph):
        _, outcomes, _ = run_level(web_graph, 4, d_high=40)
        q0 = modularity(web_graph, np.arange(web_graph.n_vertices))
        assert outcomes[0].q_final > q0 + 0.05

    def test_single_rank_matches_sequential_one_level(self, karate):
        """With p=1 and no hubs, Algorithm 2 is sequential Louvain's first
        level (same sweep order, same gains)."""
        from repro.core.sequential import louvain_one_level

        part, outcomes, _ = run_level(karate, 1, d_high=10**9)
        seq_assign, _ = louvain_one_level(karate)
        par_assign = flat_assignment(part, outcomes)
        from repro.graph.ops import relabel_communities

        assert np.array_equal(
            relabel_communities(par_assign), relabel_communities(seq_assign)
        )

    def test_bouncing_pair_resolved_by_gating(self):
        """Two vertices joined by one edge, owned by different ranks: the
        canonical Fig. 3 scenario must converge to one community."""
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(2, [(0, 1)])
        part, outcomes, _ = run_level(g, 2, d_high=10**9)
        a = flat_assignment(part, outcomes)
        assert a[0] == a[1]

    def test_empty_rank_participates(self):
        """More ranks than vertices: idle ranks must not deadlock."""
        from repro.graph.generators import path_graph

        part, outcomes, _ = run_level(path_graph(3), 5, d_high=10**9)
        assert outcomes[0].converged


class TestWorkAccounting:
    def test_compute_proportional_to_edges(self, web_graph):
        part, _, stats = run_level(web_graph, 4, d_high=40)
        from repro.partition import edges_per_rank

        edges = edges_per_rank(part)
        compute = stats.compute_per_rank()
        # each inner iteration scans each local entry once
        assert np.all(compute >= edges)

    def test_phases_tagged(self, web_graph):
        _, _, stats = run_level(web_graph, 4, d_high=40)
        phases = set(stats.phases())
        assert {"find_best", "bcast_delegates", "swap_ghost", "other"} <= phases


class _MaxLabelHeuristic(MoveHeuristic):
    """A custom rule the bulk sweep kernel has no encoding for."""

    name = "maxlabel"

    def _pick(self, top):
        return max(top, key=lambda c: c.label)


class TestSweepModeChoice:
    def test_vectorized_rejects_heuristic_without_bulk_rule(self, karate):
        """The vectorized sweep used to fall back to the scalar loop for
        such a heuristic without a word: a different trajectory at a
        fraction of the speed."""
        part = oned_partition(karate, 2)

        def worker(comm, sweep_mode):
            lg = part.locals[comm.rank]
            return LocalClustering(
                comm, lg, _MaxLabelHeuristic(), max_inner=5, sweep_mode=sweep_mode
            ).run().q_final

        with pytest.raises(SPMDError) as exc:
            run_spmd(2, worker, "vectorized", timeout=30)
        assert isinstance(exc.value.original, ValueError)
        assert "maxlabel" in str(exc.value.original)
        assert "gauss-seidel" in str(exc.value.original)
        res = run_spmd(2, worker, "gauss-seidel", timeout=30)
        assert res.results[0] == res.results[1]


class TestLabelIndexReuse:
    """The snapshot the sync builds on its compact label index serves the
    next vectorized sweep, and every write to ``comm_of`` drops it."""

    def test_sweep_reuses_the_sync_index(self, web_graph):
        part = delegate_partition(web_graph, 2, d_high=30)
        used = []

        def spy_on(lc):
            real = lc._kernels.sweep

            def spy(snap, comm_of, down_only):
                # the index handed over describes comm_of as the sweep sees it
                assert np.array_equal(snap.labels[snap.cidx], comm_of)
                used.append(id(snap.cidx))
                return real(snap, comm_of, down_only)

            lc._kernels.sweep = spy

        def valid(lc):
            # a kept snapshot always describes the current comm_of
            snap = lc.snapshot
            return snap is None or np.array_equal(snap.labels[snap.cidx], lc.comm_of)

        def worker(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                sweep_mode="vectorized",
            )
            spy_on(lc)
            built, checks = [], []
            for _ in range(4):
                lc.sync_aggregates()
                built.append(id(lc.snapshot.cidx))
                checks.append(valid(lc))
                hub_gain, hub_target = lc.find_best_pass()[1:]
                checks.append(valid(lc))
                lc.broadcast_delegates(hub_gain, hub_target)
                checks.append(valid(lc))
                lc.swap_ghosts()
                checks.append(valid(lc))
            return built, checks

        results = run_spmd(2, worker, timeout=60, backend="thread").results
        # every sweep ran on the index its preceding sync built
        assert set(used) == {i for built, _checks in results for i in built}
        assert len(used) == 8
        assert all(all(checks) for _built, checks in results)

    def test_best_state_restore_clears_the_index(self, web_graph):
        part = delegate_partition(web_graph, 2, d_high=30)

        def worker(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                sweep_mode="vectorized", max_inner=5,
            )
            lc.run()
            return lc.snapshot

        assert run_spmd(2, worker, timeout=60, backend="thread").results == [None, None]

class TestSyncSnapshot:
    """The sync is the only writer of the community state the sweeps
    read."""

    @pytest.mark.parametrize("sweep_mode", ["gauss-seidel", "vectorized"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_snapshot_matches_dict_pull(self, web_graph, sweep_mode, p):
        """After each sync the snapshot sits on ``np.unique(comm_of)``, and
        its columns equal the oracle's dict pull of the same state bit for
        bit, a few inner iterations into the level (hubs included)."""
        part = delegate_partition(web_graph, p, d_high=30)

        def worker(comm):
            lg = part.locals[comm.rank]
            lc = LocalClustering(
                comm, lg, get_heuristic("enhanced"), sweep_mode=sweep_mode
            )
            ref = ScalarSyncClustering(comm, lg, get_heuristic("enhanced"))
            moved = 0
            for _ in range(4):
                q = lc.sync_aggregates()
                ref.comm_of = lc.comm_of.copy()
                assert ref.sync_aggregates() == q
                got, want = lc.snapshot, ref.snapshot
                assert np.array_equal(got.labels, np.unique(lc.comm_of))
                for name in CommunitySnapshot._fields[:5]:
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
                # the scan's pairs, bit for bit, up to their order in a row
                for g, w in zip(canonical_pairs(got.pairs), canonical_pairs(want.pairs)):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                n, hub_gain, hub_target = lc.find_best_pass()
                moved += n + lc.broadcast_delegates(hub_gain, hub_target)
                lc.swap_ghosts()
            return moved

        assert sum(run_spmd(p, worker, timeout=60, backend="thread").results) > 0

    def test_reply_mismatch_raises(self):
        """Replies are placed by the request permutation, so a reply stream
        that does not repeat the requests is a protocol error, in C and in
        the numpy reference."""
        # four local vertices, three of them owned rows, at rank 0 of 2:
        # labels [3, 8, 12], requests [8, 12] to rank 0 and [3] to rank 1
        lg = SimpleNamespace(
            indptr=np.zeros(4, dtype=np.int64), indices=_EMPTY_I64,
            weights=np.zeros(0), row_weighted_degree=np.ones(4), n_local=4,
            n_owned=3, n_hubs=0, n_rows=3, m_global=1.0,
            hub_global_ids=_EMPTY_I64, global_ids=np.arange(4), send_to={},
            recv_from={},
        )
        comm = SimpleNamespace(rank=0, size=2)
        for numpy in (False, True):
            with numpy_path() if numpy else contextlib.nullcontext():
                kernels = LocalClustering(comm, lg, get_heuristic("enhanced"))._kernels
            # C ships each reply packed into one int64 buffer
            wire = (lambda reply: reply) if numpy else packed
            comm_of = np.array([3, 12, 8, 3], dtype=np.int64)
            _contributions, requests = kernels.send(comm_of)
            assert [r.tolist() for r in requests] == [[8, 12], [3]]
            answered = [
                (requests[0], np.array([[1.5, 2.0], [4.0, 1.0]])),
                (requests[1], np.array([[2.5, 1.0]])),
            ]
            snap = CommunitySnapshot(*kernels.place([wire(a) for a in answered]))
            assert snap.sigma_tot.tolist() == [2.5, 1.5, 4.0]
            assert snap.size.tolist() == [1, 2, 1]
            assert snap.local.tolist() == [1, 1, 1]
            kernels.send(comm_of)
            in_label_order = [
                (np.array([3, 8]), answered[0][1]), (np.array([12]), answered[1][1])
            ]
            with pytest.raises(RuntimeError, match="replies"):
                kernels.place([wire(a) for a in in_label_order])

    @pytest.mark.parametrize("sweep_mode", ["gauss-seidel", "vectorized"])
    def test_sweep_without_sync_raises(self, web_graph, sweep_mode):
        """A ghost swap drops the snapshot; a sweep after it, with no sync
        in between, fails instead of reading aggregates of another
        moment."""
        part = delegate_partition(web_graph, 2, d_high=30)

        def worker(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                sweep_mode=sweep_mode,
            )
            with pytest.raises(RuntimeError, match="sync"):
                lc.find_best_pass()  # nothing synced yet
            lc.sync_aggregates()
            assert lc.snapshot is not None
            lc.swap_ghosts()
            assert lc.snapshot is None
            with pytest.raises(RuntimeError, match="sync"):
                lc.find_best_pass()
            return True

        assert run_spmd(2, worker, timeout=60, backend="thread").results == [True, True]
