"""Equivalence of the aggregate-sync / merge kernels with their dict-based
oracle (``tests/core/agg_oracle.py``).

The product runs the owner aggregation, the pull and the merge assembly on
numpy tables.  Unlike the sweep modes — which legitimately land in
different local optima — these kernels claim *bitwise* equivalence with
the seed's dict loops: identical labels, identical Q to the last ulp,
identical per-phase wire bytes.  This suite pins that claim:

1. **Unit** — ``OwnerTable``, built from one received stream, against the
   oracle's dict owner accumulator, including the insertion-order float
   accumulation of partial modularity, and the
   subscriber-side ``CommunityTable`` against a literal transcription of
   the dict cache it replaced, including the Gauss-Seidel sweep's replay
   of its moves onto the table;
2. **Merge** — ``merge_level`` vs the oracle's scalar assembly,
   field by field on every rank;
3. **End-to-end grid** — full pipeline, product vs oracle over
   p × partitioning × sweep_mode × ghost_mode: same
   assignment, same Q, same per-phase byte counters.

The oracle is swapped in by patching modules of this interpreter, so every
comparison runs on ``backend="thread"`` and asserts that the oracle ran.
"""

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.core.community_table import CommunityTable, OwnerTable
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.merging import merge_level
from repro.graph.generators import lfr_graph
from repro.partition import delegate_partition, oned_partition
from repro.runtime import run_spmd
from tests.core.agg_oracle import DictOwnerReference, scalar_reference


class DictCacheReference:
    """Literal transcription of the seed's subscriber-side dict cache:
    ``sigma_tot`` / ``csize`` / ``local_members`` with the pull's
    rebuild, the census, and the per-move ``get`` defaults of
    ``LocalClustering._apply_move``."""

    def __init__(self):
        self.sigma_tot = {}
        self.csize = {}
        self.local_members = {}

    def rebuild(self, labels, sigma, size):
        self.sigma_tot = {}
        self.csize = {}
        for lab, t, c in zip(labels.tolist(), sigma.tolist(), size.tolist()):
            self.sigma_tot[lab] = t
            self.csize[lab] = c

    def census(self, owned_labels):
        self.local_members = {}
        for lab in owned_labels.tolist():
            self.local_members[lab] = self.local_members.get(lab, 0) + 1

    def apply_move(self, cu, new_label, wu, owned):
        self.sigma_tot[cu] = self.sigma_tot.get(cu, wu) - wu
        self.csize[cu] = self.csize.get(cu, 1) - 1
        self.sigma_tot[new_label] = self.sigma_tot.get(new_label, 0.0) + wu
        self.csize[new_label] = self.csize.get(new_label, 0) + 1
        if owned:  # hubs never count toward "local" communities
            self.local_members[cu] = self.local_members.get(cu, 1) - 1
            self.local_members[new_label] = (
                self.local_members.get(new_label, 0) + 1
            )

    def lookup_eval(self, labels):
        labs = labels.tolist()
        return (
            np.array([self.sigma_tot.get(lab, 0.0) for lab in labs]),
            np.array([lab in self.sigma_tot for lab in labs], dtype=bool),
            np.array([self.csize.get(lab, 1) for lab in labs], dtype=np.int64),
            np.array(
                [self.local_members.get(lab, 0) > 0 for lab in labs], dtype=bool
            ),
        )


def _assert_lookup_bitwise(table, ref, labels):
    for got, want in zip(table.lookup_eval(labels), ref.lookup_eval(labels)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestCommunityTableUnit:
    """The subscriber cache against the dict semantics it replaces."""

    N_VERTICES = 60
    N_LABELS = 90  # labels >= N_VERTICES start uncached (hub-consensus targets)

    def _sync(self, rng, table, ref, comm_of, owned):
        # answers arrive in rank order, not label order
        labels = rng.permutation(np.unique(comm_of))
        sigma = rng.standard_normal(labels.size) * 5.0 + 7.0
        size = rng.integers(1, 6, size=labels.size)
        table.rebuild(labels, sigma, size)
        ref.rebuild(labels, sigma, size)
        labs, cnts = np.unique(comm_of[owned], return_counts=True)
        table.set_local_census(labs, cnts)
        ref.census(comm_of[owned])

    def _moves(self, rng, table, ref, comm_of, owned, wdeg):
        rows = rng.choice(comm_of.size, size=rng.integers(1, 15), replace=False)
        old = comm_of[rows].copy()
        new = rng.integers(0, self.N_LABELS, size=rows.size)
        keep = new != old
        rows, old, new = rows[keep], old[keep], new[keep]
        for u, cu, c in zip(rows.tolist(), old.tolist(), new.tolist()):
            ref.apply_move(cu, c, float(wdeg[u]), bool(owned[u]))
        # the interleaved stream of LocalClustering._apply_moves_bulk
        n = rows.size
        upd = np.empty(2 * n, dtype=np.int64)
        upd[0::2], upd[1::2] = old, new
        d_sigma = np.empty(2 * n)
        d_sigma[0::2], d_sigma[1::2] = -wdeg[rows], wdeg[rows]
        d_size = np.empty(2 * n, dtype=np.int64)
        d_size[0::2], d_size[1::2] = -1, 1
        d_local = np.empty(2 * n, dtype=np.int64)
        d_local[0::2] = np.where(owned[rows], -1, 0)
        d_local[1::2] = np.where(owned[rows], 1, 0)
        table.scatter_add(upd, d_sigma, d_size, d_local)
        comm_of[rows] = new

    def test_matches_dict_reference_over_rounds(self, rng):
        table, ref = CommunityTable(), DictCacheReference()
        comm_of = np.arange(self.N_VERTICES, dtype=np.int64)
        owned = rng.random(self.N_VERTICES) < 0.7
        wdeg = rng.uniform(0.5, 9.0, self.N_VERTICES)
        every = np.arange(-3, self.N_LABELS + 3, dtype=np.int64)
        for _ in range(20):
            self._sync(rng, table, ref, comm_of, owned)
            _assert_lookup_bitwise(table, ref, every)
            for _ in range(3):
                self._moves(rng, table, ref, comm_of, owned, wdeg)
                _assert_lookup_bitwise(table, ref, every)
            assert table.labels.tolist() == sorted(ref.sigma_tot)
            assert table.as_dicts() == (ref.sigma_tot, ref.csize)

    def test_empty_table_defaults(self):
        labels = np.array([-1, 0, 5, 2**40], dtype=np.int64)
        _assert_lookup_bitwise(CommunityTable(), DictCacheReference(), labels)
        _assert_lookup_bitwise(
            CommunityTable(),
            DictCacheReference(),
            np.zeros(0, dtype=np.int64),
        )

    def test_census_miss_raises_keyerror(self):
        table = CommunityTable()
        table.rebuild(
            np.array([4], dtype=np.int64), np.ones(1), np.ones(1, dtype=np.int64)
        )
        with pytest.raises(KeyError):
            table.set_local_census(
                np.array([4, 9], dtype=np.int64), np.ones(2, dtype=np.int64)
            )


def _assert_table_matches_views(lc):
    """``lc.ctab`` equals the dict views of the last Gauss-Seidel pass,
    bit for bit."""
    tab = lc.ctab
    labs = tab.labels.tolist()
    assert labs == sorted(lc.sigma_tot) == sorted(lc.csize)
    assert set(lc.local_members) <= set(labs)
    want_sigma = np.array([lc.sigma_tot[lab] for lab in labs], dtype=np.float64)
    assert tab.sigma_tot.tobytes() == want_sigma.tobytes()
    assert tab.size.tolist() == [lc.csize[lab] for lab in labs]
    assert tab.local.tolist() == [lc.local_members.get(lab, 0) for lab in labs]


@pytest.mark.parametrize("p", [1, 2, 4])
def test_gauss_seidel_replay_matches_pass_views(ba_graph, p):
    """A Gauss-Seidel pass moves owned vertices on its dict views and then
    replays the moves onto ``ctab``; hub consensus then moves hubs on the
    table only.  Over several inner iterations the table must equal the
    views after the pass, and the views plus the hub moves (applied with
    the dict semantics) after the consensus."""
    partition = delegate_partition(ba_graph, p, d_high=8)

    def worker(comm):
        lg = partition.locals[comm.rank]
        lc = LocalClustering(comm, lg, get_heuristic("enhanced"))
        lc.sync_aggregates()
        owned_moves = hub_moves = 0
        for _ in range(4):
            moved, hub_gain, hub_target = lc.find_best_pass()
            owned_moves += moved
            _assert_table_matches_views(lc)

            before = lc.comm_of.copy()
            lc.broadcast_delegates(hub_gain, hub_target)
            ref = DictCacheReference()
            ref.sigma_tot, ref.csize = lc.sigma_tot, lc.csize
            ref.local_members = lc.local_members
            for u in np.flatnonzero(lc.comm_of != before).tolist():
                assert u >= lg.n_owned  # consensus only moves hubs
                ref.apply_move(
                    int(before[u]),
                    int(lc.comm_of[u]),
                    float(lg.row_weighted_degree[u]),
                    owned=False,
                )
                hub_moves += 1
            _assert_table_matches_views(lc)

            lc.swap_ghosts()
            lc.sync_aggregates()
        return owned_moves, hub_moves

    results = run_spmd(p, worker, timeout=60).results
    # the replay is exercised: owned vertices moved, and hubs too at p > 1
    assert sum(r[0] for r in results) > 0
    if p > 1:
        assert sum(r[1] for r in results) > 0


class TestOwnerTableUnit:
    def _random_stream(self, rng, n_labels, n_peers):
        """One round's received stream: the rank-order concatenation of
        every peer's payload, each label at most once per peer."""
        labs = np.concatenate(
            [
                rng.choice(n_labels, size=rng.integers(0, 30), replace=False)
                for _ in range(n_peers)
            ]
        ).astype(np.int64)
        return (
            labs,
            rng.standard_normal(labs.size) + 3.0,
            rng.integers(0, 4, size=labs.size).astype(np.float64),
            np.abs(rng.standard_normal(labs.size)),
        )

    def test_matches_dict_reference_over_rounds(self, rng):
        for _ in range(40):
            stream = self._random_stream(rng, 40, int(rng.integers(1, 6)))
            table, ref = OwnerTable(*stream), DictOwnerReference()
            ref.merge(*stream)
            assert np.array_equal(table.labels, sorted(ref.own))
            assert len(table) == len(ref.own)
            for lab, acc in ref.own.items():
                t, c = table.lookup(np.array([lab], dtype=np.int64))
                assert t[0] == acc[0] and c[0] == acc[1]  # bitwise
            # the headline claim: identical float reduction order
            assert table.partial_modularity(50.0, 1.0) == ref.partial_modularity(
                50.0, 1.0
            )

    def test_lookup_missing_raises_keyerror(self):
        table = OwnerTable(
            np.array([3], dtype=np.int64), np.ones(1), np.ones(1), np.ones(1)
        )
        with pytest.raises(KeyError):
            table.lookup(np.array([3, 7], dtype=np.int64))

    def test_insertion_order_not_label_order(self):
        # labels arriving high-first must accumulate Q in arrival order
        labs = np.array([9, 1, 5, 1], dtype=np.int64)
        tot = np.array([0.3, 0.7, 0.1, 0.2])
        one = np.ones(4)
        table, ref = OwnerTable(labs, tot, one, tot * 0.9), DictOwnerReference()
        ref.merge(labs, tot, one, tot * 0.9)
        assert table.labels.tolist() == [1, 5, 9]
        assert table.partial_modularity(2.0, 1.3) == ref.partial_modularity(
            2.0, 1.3
        )

    def test_empty_stream(self):
        empty = np.zeros(0)
        table = OwnerTable(np.zeros(0, dtype=np.int64), empty, empty, empty)
        assert len(table) == 0
        assert table.partial_modularity(2.0, 1.0) == 0.0


def _merge_all_fields(graph, p, kind, seed=3):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, max(graph.n_vertices // 4, 2),
                              size=graph.n_vertices)
    part = (
        oned_partition(graph, p)
        if kind == "1d"
        else delegate_partition(graph, p, d_high=20)
    )

    def worker(comm):
        lg = part.locals[comm.rank]
        return merge_level(comm, lg, assignment[lg.global_ids])

    return run_spmd(p, worker, timeout=60, backend="thread").results


class TestMergeImplEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["1d", "delegate"])
    def test_vectorized_assembly_bitwise(self, ba_graph, p, kind):
        vec = _merge_all_fields(ba_graph, p, kind)
        with scalar_reference() as calls:
            ref = _merge_all_fields(ba_graph, p, kind)
        assert calls["assemble"] == p
        for (vlg, vf, vc), (slg, sf, sc) in zip(vec, ref):
            assert np.array_equal(vf, sf) and np.array_equal(vc, sc)
            for name in (
                "global_ids", "indptr", "indices", "hub_global_ids"
            ):
                assert np.array_equal(getattr(vlg, name), getattr(slg, name))
            for name in ("weights", "row_weighted_degree", "row_selfloop"):
                assert getattr(vlg, name).tobytes() == getattr(slg, name).tobytes()
            assert vlg.n_owned == slg.n_owned and vlg.n_global == slg.n_global
            assert sorted(vlg.send_to) == sorted(slg.send_to)
            for r in vlg.send_to:
                assert np.array_equal(vlg.send_to[r], slg.send_to[r])
            for r in vlg.recv_from:
                assert np.array_equal(vlg.recv_from[r], slg.recv_from[r])

    def test_bad_impl_rejected(self, karate):
        """``merge_level`` has one assembly: any ``impl=`` is a TypeError."""
        part = oned_partition(karate, 1)

        def worker(comm):
            lg = part.locals[comm.rank]
            merge_level(comm, lg, np.zeros(lg.n_local, dtype=np.int64),
                        impl="scalar")

        with pytest.raises(Exception, match="impl"):
            run_spmd(1, worker, timeout=30, backend="thread")


def _phase_bytes(stats):
    return [dict(r.bytes_sent_by_phase) for r in stats.ranks]


def _run_both(graph, p, **kw):
    cfg = DistributedConfig(backend="thread", d_high=32, **kw)
    with scalar_reference() as calls:
        ref = distributed_louvain(graph, p, cfg)
    assert calls["sync"] > 0 and calls["assemble"] > 0
    return ref, distributed_louvain(graph, p, cfg)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("partitioning", ["delegate", "1d"])
    def test_gauss_seidel_grid(self, ba_graph, p, partitioning):
        self._assert_identical(*_run_both(ba_graph, p, partitioning=partitioning))

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize(
        "ghost_mode", ["full", "delta"], ids=["full", "ghost_delta"]
    )
    def test_vectorized_sweep_grid(self, ba_graph, p, ghost_mode):
        self._assert_identical(
            *_run_both(ba_graph, p, ghost_mode=ghost_mode, sweep_mode="vectorized")
        )

    def test_lfr_delta_delta(self):
        graph = lfr_graph(300, mu=0.2, seed=21).graph
        self._assert_identical(*_run_both(graph, 4, ghost_mode="delta"))

    def _assert_identical(self, a, b):
        assert np.array_equal(a.assignment, b.assignment)
        assert a.modularity == b.modularity
        assert a.modularity_per_level == b.modularity_per_level
        assert a.n_levels == b.n_levels
        # wire-format preservation: per-rank, per-phase byte counts match
        assert _phase_bytes(a.stats) == _phase_bytes(b.stats)
