"""Tests for distributed graph merging (Algorithm 3)."""

from unittest import mock

import numpy as np
import pytest

from repro.core import native
from repro.core.coarsen import coarsen_graph
from repro.core.merging import merge_level
from repro.graph.csr import CSRGraph, build_symmetric_csr
from repro.partition import delegate_partition, oned_partition
from repro.runtime import run_spmd


def distributed_merge(graph, p, assignment, partition_kind="1d", d_high=None):
    """Run merge_level on a fixed assignment; reassemble the coarse graph."""
    if partition_kind == "1d":
        part = oned_partition(graph, p)
    else:
        part = delegate_partition(graph, p, d_high=d_high)

    def worker(comm):
        lg = part.locals[comm.rank]
        comm_of = assignment[lg.global_ids]
        new_lg, fine_ids, coarse_ids = merge_level(comm, lg, comm_of)
        return new_lg, fine_ids, coarse_ids

    res = run_spmd(p, worker, timeout=60)
    return part, res.results


def reassemble(results, p):
    """Build a global CSRGraph from the per-rank coarse LocalGraphs."""
    k = results[0][0].n_global
    src, dst, w = [], [], []
    for new_lg, _, _ in results:
        rows = np.repeat(
            new_lg.global_ids[np.arange(new_lg.n_rows)], np.diff(new_lg.indptr)
        )
        cols = new_lg.global_ids[new_lg.indices]
        for u, v, ww in zip(rows, cols, new_lg.weights):
            if u <= v:
                src.append(u)
                dst.append(v)
                w.append(ww)
    return build_symmetric_csr(k, np.array(src), np.array(dst), np.array(w))


class TestMergeCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["1d", "delegate"])
    def test_matches_sequential_coarsen(self, karate, p, kind):
        rng = np.random.default_rng(42)
        assignment = rng.integers(0, 6, karate.n_vertices)
        # distributed merge labels communities by representative vertex id;
        # use vertex-id labels so both sides densify identically
        labels = np.array([np.flatnonzero(assignment == assignment[v]).min()
                           for v in range(34)])
        expected, _ = coarsen_graph(karate, labels)
        part, results = distributed_merge(karate, p, labels, kind, d_high=8)
        got = reassemble(results, p)
        assert got == expected

    def test_total_weight_preserved(self, web_graph):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 20, web_graph.n_vertices)
        _, results = distributed_merge(web_graph, 4, a)
        coarse = reassemble(results, 4)
        assert np.isclose(coarse.total_weight, web_graph.total_weight)

    def test_coarse_degrees_match(self, web_graph):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 10, web_graph.n_vertices)
        _, results = distributed_merge(web_graph, 4, a)
        coarse = reassemble(results, 4)
        for new_lg, _, _ in results:
            for i in range(new_lg.n_owned):
                c = new_lg.global_ids[i]
                assert np.isclose(
                    new_lg.row_weighted_degree[i], coarse.weighted_degrees[c]
                )

    def test_level_mapping_covers_all_vertices(self, web_graph):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 10, web_graph.n_vertices)
        _, results = distributed_merge(web_graph, 4, a)
        all_ids = np.concatenate([r[1] for r in results])
        assert np.array_equal(np.sort(all_ids), np.arange(web_graph.n_vertices))

    def test_level_mapping_consistent_with_assignment(self, karate):
        a = (np.arange(34) % 4).astype(np.int64)
        _, results = distributed_merge(karate, 3, a)
        # vertices with equal labels must map to equal coarse ids
        mapping = {}
        for _, fine_ids, coarse_ids in results:
            for f, c in zip(fine_ids.tolist(), coarse_ids.tolist()):
                mapping[f] = c
        for u in range(34):
            for v in range(34):
                assert (a[u] == a[v]) == (mapping[u] == mapping[v])

    def test_edgeless_community_survives(self):
        """A community of isolated vertices must become a coarse vertex."""
        g = CSRGraph.from_edges(5, [(0, 1)])  # 2,3,4 isolated
        a = np.array([0, 0, 2, 2, 4])
        _, results = distributed_merge(g, 2, a)
        assert results[0][0].n_global == 3

    def test_ghost_maps_rebuilt(self, web_graph):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 50, web_graph.n_vertices)
        _, results = distributed_merge(web_graph, 4, a)
        locals_ = [r[0] for r in results]
        for lg in locals_:
            for peer, ids in lg.recv_from.items():
                assert np.array_equal(ids, locals_[peer].send_to[lg.rank])

    def test_new_partition_is_valid(self, web_graph):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 30, web_graph.n_vertices)
        _, results = distributed_merge(web_graph, 4, a)
        for lg, _, _ in results:
            lg.validate()


class TestAggregatePairsOverflow:
    """No label range can overflow a ``cu * n + cv`` key: the C path
    compacts the labels before it sorts, and the numpy path keys the
    labels' span only while its square fits in int64, else lexsorts
    (``_aggregate_pairs_sorted``).  These run on the path in use;
    :class:`TestAggregatePairsOverflowNumpy` repeats them on numpy."""

    def test_sorted_path_matches_keyed_path(self):
        from repro.core.merging import _aggregate_pairs, _aggregate_pairs_sorted

        rng = np.random.default_rng(42)
        cu = rng.integers(0, 50, 500).astype(np.int64)
        cv = rng.integers(0, 50, 500).astype(np.int64)
        w = rng.standard_normal(500) ** 2
        ku, kv, kw = _aggregate_pairs(cu, cv, w)
        su, sv, sw = _aggregate_pairs_sorted(cu, cv, w)
        assert np.array_equal(ku, su)
        assert np.array_equal(kv, sv)
        assert kw.tobytes() == sw.tobytes()  # same accumulation order

    def test_huge_n_global_does_not_wrap(self):
        from repro.core.merging import _aggregate_pairs

        # above floor(sqrt(2**63 - 1)): a cu * n + cv key would wrap int64
        hi = np.int64(3 * 3_037_000_499 - 1)
        cu = np.array([hi, 0, hi, 0], dtype=np.int64)
        cv = np.array([0, hi, 0, hi], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        au, av, aw = _aggregate_pairs(cu, cv, w)
        assert au.size == 2  # two distinct pairs, NOT merged by key wrap
        assert np.array_equal(au, [0, hi])
        assert np.array_equal(av, [hi, 0])
        assert np.array_equal(aw, [6.0, 4.0])

    def test_below_limit_uses_keyed_path_unchanged(self):
        from repro.core.merging import _aggregate_pairs

        cu = np.array([1, 1, 0], dtype=np.int64)
        cv = np.array([2, 2, 1], dtype=np.int64)
        w = np.array([0.5, 0.25, 1.0])
        au, av, aw = _aggregate_pairs(cu, cv, w)
        assert np.array_equal(au, [0, 1])
        assert np.array_equal(av, [1, 2])
        assert np.array_equal(aw, [1.0, 0.75])


class TestAggregatePairsOverflowNumpy(TestAggregatePairsOverflow):
    """The same cases with the numpy fallback forced."""

    @pytest.fixture(autouse=True)
    def _numpy_only(self):
        with mock.patch.object(native, "available", lambda: False):
            yield


class TestAggregateOwnedRows:
    """Merge step 3 aggregates rows whose sources are this rank's own dense
    ids without hashing them: the same pairs, order and sums as the
    general aggregation."""

    @pytest.mark.parametrize("size,rank", [(1, 0), (2, 1), (3, 0), (4, 3)])
    def test_matches_aggregate_pairs(self, size, rank):
        from repro.core.merging import _aggregate_owned_rows, _aggregate_pairs

        rng = np.random.default_rng(size * 10 + rank)
        k = 40
        owned = np.arange(rank, k, size, dtype=np.int64)
        ncu = owned[rng.integers(0, owned.size, 300)]
        ncv = rng.integers(0, k, 300).astype(np.int64)
        w = rng.uniform(0.1, 3.0, 300)
        got = _aggregate_owned_rows(rank, size, k, ncu, ncv, w)
        want = _aggregate_pairs(ncu, ncv, w)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        empty = np.zeros(0, dtype=np.int64)
        assert all(
            a.size == 0 for a in _aggregate_owned_rows(rank, size, k, empty, empty,
                                                       np.zeros(0))
        )
