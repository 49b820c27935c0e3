"""Equivalence of the aggregate-sync / merge kernels with their dict-based
oracle (``tests/core/agg_oracle.py``).

The product runs the owner aggregation, the pull and the merge assembly on
numpy tables.  Unlike the sweep modes — which legitimately land in
different local optima — these kernels claim *bitwise* equivalence with
the seed's dict loops: identical labels, identical Q to the last ulp,
identical per-phase wire bytes.  This suite pins that claim:

1. **Unit** — the numpy ``OwnerTable`` (the reference of the C owner
   phase), built from one received stream, against the oracle's dict
   owner accumulator, including the insertion-order float accumulation of
   partial modularity (the subscriber-side snapshot is pinned against the
   oracle's dict pull in ``test_local_clustering.py``);
2. **Merge** — ``merge_level`` vs the oracle's scalar assembly,
   field by field on every rank, on the C kernels and on their numpy
   references (``tests/core/numpy_kernels.py``);
3. **End-to-end grid** — full pipeline, product vs oracle over
   p × partitioning × sweep_mode × ghost_mode: same
   assignment, same Q, same per-phase byte counters.

The oracle is swapped in by patching modules of this interpreter, so every
comparison runs on ``backend="thread"`` and asserts that the oracle ran.
"""

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.core.merging import merge_level
from repro.graph.generators import lfr_graph
from repro.partition import delegate_partition, oned_partition
from repro.runtime import run_spmd
from tests.core.agg_oracle import DictOwnerReference, scalar_reference
from tests.core.numpy_kernels import OwnerTable, numpy_path
from tests.core.test_sweep_equivalence import _float_weighted


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
            # labels in first-arrival order: the dict's insertion order
            assert table.labels.tolist() == list(ref.own)
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
        assert table.labels.tolist() == list(ref.own) == [9, 1, 5]
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
        self._assert_matches_oracle(ba_graph, p, kind)

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["1d", "delegate"])
    def test_numpy_fallback_bitwise(self, ba_graph, p, kind):
        """The same check with the numpy references in place of the C
        kernels (pair aggregation, dense relabel, ghost index, CSR sort)."""
        with numpy_path():
            self._assert_matches_oracle(ba_graph, p, kind)

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["1d", "delegate"])
    def test_c_and_numpy_bitwise_on_float_weights(self, ba_graph, p, kind):
        """Float weights make every pair sum's addition order visible: the
        C and numpy aggregations must add in the same order."""
        graph = _float_weighted(ba_graph)
        got = _merge_all_fields(graph, p, kind)
        with numpy_path():
            ref = _merge_all_fields(graph, p, kind)
        TestMergeImplEquivalence._assert_same_fields(got, ref)

    @staticmethod
    def _assert_matches_oracle(ba_graph, p, kind):
        vec = _merge_all_fields(ba_graph, p, kind)
        with scalar_reference() as calls:
            ref = _merge_all_fields(ba_graph, p, kind)
        assert calls["assemble"] == p
        TestMergeImplEquivalence._assert_same_fields(vec, ref)

    @staticmethod
    def _assert_same_fields(vec, ref):
        for (vlg, vf, vc), (slg, sf, sc) in zip(vec, ref, strict=True):
            assert np.array_equal(vf, sf) and np.array_equal(vc, sc)
            for name in (
                "global_ids", "indptr", "indices", "hub_global_ids"
            ):
                assert np.array_equal(getattr(vlg, name), getattr(slg, name))
            for name in ("weights", "row_weighted_degree"):
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
